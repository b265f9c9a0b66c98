#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/steadiness.py --workloads train,analysis,cli --seeds 1-10 [--trace 1]
                                [--out results.json] [--compare earlier.json]

For every metric: the median and quartiles over the seeds (``statistics.
quantiles(values, n=4)``) and the spread, (q3 - q1) / median.  An end-to-end
metric is flagged ``OVER`` when its spread exceeds its bound in BENCHMARK.json.
With ``--compare``,
each median is also checked against the earlier file's median: ``WORSE`` when
it is worse by more than the bound.  ``--out`` merges the results, with the
host's run context, into a JSON file (``bench/baseline.json`` holds the
committed baseline).  Exits non-zero when an op fails or a metric is ``OVER`` or ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, float]:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), took


def context() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    try:  # the library commit measured, when run from a git checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    except OSError:
        commit = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "platform": platform.platform(),
            "library_commit": commit}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seeds", default="1-10", help="lo-hi or a comma list")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--compare", type=Path, help="earlier --out file to compare medians with")
    args = p.parse_args(argv)

    defs = {m["name"]: m for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    mode = f"trace{args.trace}"
    earlier = json.loads(args.compare.read_text())["results"][mode] if args.compare else {}
    results, flagged = {}, 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        durations, failed = [], 0
        for seed in seed_list(args.seeds):
            out, took = run_once(workload, seed, args.trace)
            durations.append(took)
            failed += out["failed"] + (not out["correct"])
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        flagged += failed > 0
        print(f"== {workload}: {len(durations)} runs, {failed} failed ops, "
              f"run time {min(durations):.1f}-{max(durations):.1f} s")
        rows = {}
        for name, vals in values.items():
            row = summarize(vals)
            d = defs[name]
            row.update(unit=d["unit"], better=d["better"])
            flags = []
            if "bound" in d:
                row["bound"] = d["bound"]
                if row["spread"] > d["bound"]:
                    flags.append("OVER")
                before = earlier.get(workload, {}).get("metrics", {}).get(name)
                if before:
                    sign = 1 if d["better"] == "lower" else -1
                    if sign * (row["median"] - before["median"]) > d["bound"] * before["median"]:
                        flags.append("WORSE")
            flagged += bool({"OVER", "WORSE"} & set(flags))
            rows[name] = row
            print(f"{name:<44} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                  f"spread {row['spread']:7.2%}  {d['unit']:<6}{' '.join(flags)}")
        results[workload] = {"metrics": rows, "run_seconds": durations, "seeds": args.seeds}

    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc["context"] = context()
        doc.setdefault("results", {}).setdefault(mode, {}).update(results)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
