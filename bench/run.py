#!/usr/bin/env python3
"""belldist benchmark: one workload, one closed-loop client, one op at a time.

    python3 bench/run.py --workload {train,analysis,cli} --seed N --seconds S --trace {0,1}

Run from the root of a belldist checkout; the library is imported from its
``src`` directory, never from an installed copy.

The run sets up in its own process and runs *passes* (op lists with the
workload's fixed pattern of op kinds, variants drawn by seed and pass number)
while another whole pass fits in ``--seconds``.  Between passes, spread evenly
over the run, it times set-up in fresh interpreters, so the set-up samples see
the same host speed as the passes.  Every op's output is checked against
``bench/reference/<workload>.json``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` traces every pass
and reports the per-layer metrics, including the tracing overhead (the
measured cost of one span times the spans in a pass).  Human-readable lines
come first; the last line of standard output is one JSON object::

    {"correct": true, "attempted": 132, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
"""

from __future__ import annotations

import argparse
import compileall
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"  # scratch inputs, CLI output dirs, the span file

# single-threaded numerics, so the client and one op never need more than 2 cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import golden  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
PROBE_REPEATS = 3
SPAN_COST_CALLS, SPAN_COST_BATCHES = 2000, 7
MIN_PASSES = 2
LAYERS = ("cli", "training", "distributions", "gof", "mdp", "gumbel_algebra",
          "normal_max", "order_stats", "scaling", "losses")
# spans whose median duration is reported as <name>.p50_ms
P50_SPANS = (
    *(f"cli.{sub}" for sub in WORKLOADS["cli"].PATTERN),
    "training.run_training.tabular", "training.run_training.mlp",
    "distributions.fit_mle.gumbel.large", "distributions.fit_mle.logistic.large",
    "distributions.fit_mle.logistic.small", "distributions.sample",
    "gof.rank_families", "gof.ks_statistic",
    "mdp.example1_row_errors", "mdp.solve_qstar", "mdp.predict_gumbel",
    "gumbel_algebra.kl_bound", "normal_max.normal_max_gumbel",
    "order_stats.sampling_error", "scaling.scaling_curve", "losses.l_loss",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="time budget of the run, set-up included")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="three ops per pass, two passes, one set-up sample (the benchmark's own tests)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def use_checkout_sources() -> None:
    """Import belldist from this checkout, here and in every child process."""
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    origin = Path(importlib.util.find_spec("belldist").origin).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise RuntimeError(f"belldist resolves to {origin}, not to {SRC}")


def time_child(cmd: list[str], until_ready: bool = False) -> float:
    """Seconds from starting ``cmd`` until it exits, or until it prints
    ``ready`` when ``until_ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline() if until_ready else "ready\n"
        ready = time.perf_counter()
        _out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line != "ready\n":
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}): {err.strip()[-500:]}")
    return (ready if until_ready else time.perf_counter()) - start


def import_seconds() -> float:
    """In-process time of a fresh ``import belldist.cli``."""
    code = "import time; t = time.perf_counter(); import belldist.cli; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return float(out)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def span_cost() -> float:
    """Seconds an enabled ``Tracer.call`` adds to a call over a disabled one
    (median over batches of calls to a function that does nothing)."""
    def noop():
        return None

    costs = []
    for _ in range(SPAN_COST_BATCHES):
        on, off = Tracer(), Tracer()
        on.enabled = True
        t0 = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            on.call("noop", noop)
        t1 = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            off.call("noop", noop)
        t2 = time.perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / SPAN_COST_CALLS)
    return statistics.median(costs)


def layer_metrics(tracer: Tracer, passes: list[dict], probes: dict) -> dict:
    per_pass = [self_times(tracer.spans, p["lo"], p["hi"]) for p in passes]
    m = {}
    for layer in LAYERS:
        prefix = layer + "."
        mine = [[s for s in spans if s[0].startswith(prefix)] for spans in per_pass]
        m[f"{layer}.calls"] = metric(len(mine[0]), "count")
        m[f"{layer}.busy_s"] = metric(statistics.median(sum(s[2] for s in spans) for spans in mine), "s")
        m[f"{layer}.errors"] = metric(sum(s[3] for spans in mine for s in spans), "count")
    m["cli.import_s"] = metric(probes["import"], "s")
    m["cli.python_s"] = metric(probes["python"], "s")
    m["cli.files_written"] = metric(passes[0]["files"], "count")
    m["cli.bytes_written"] = metric(passes[0]["nbytes"], "B")
    durations: dict[str, list[float]] = {}
    for spans in per_pass:
        for name, dur, _self, _failed in spans:
            durations.setdefault(name, []).append(dur)
    for name in P50_SPANS:
        m[f"{name}.p50_ms"] = metric(statistics.median(durations[name]) * 1e3 if name in durations else 0.0, "ms")
    train_s = sum(d for name, ds in durations.items() if name.startswith("training.") for d in ds)
    steps = sum(p["env_steps"] for p in passes)
    updates = sum(p["updates"] for p in passes)
    m["training.updates_per_s"] = metric(updates / train_s if train_s else 0.0, "1/s")
    m["training.env_steps_per_s"] = metric(steps / train_s if train_s else 0.0, "1/s")
    spans_per_pass = statistics.median(p["hi"] - p["lo"] for p in passes)
    m["trace_overhead_s"] = metric(probes["span"] * spans_per_pass, "s")
    m["golden.digest_mismatches"] = metric(sum(p["digest_mismatches"] for p in passes), "count")
    return m


def run_pass(workload, ops, refs, tracer: Tracer, traced: bool, first_op_id: int) -> dict:
    """One closed-loop pass over ``ops``; each op is timed, then checked."""
    tracer.enabled = traced
    res = {"lo": len(tracer.spans), "latencies": [], "failures": [],
           "digest_mismatches": 0, "files": 0, "nbytes": 0, "env_steps": 0, "updates": 0}
    started = time.perf_counter()
    for i, op in enumerate(ops):
        tracer.op_id = first_op_id + i
        t0 = time.perf_counter()
        raw = error = None
        try:
            raw = tracer.call("op." + op.kind, workload.run, op, tracer)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            error = exc
        res["latencies"].append(time.perf_counter() - t0)
        if error is None:
            try:
                out = workload.output(op, raw)
                ref = refs.get(op.key)
                if ref is None:
                    raise LookupError("no reference output for this op")
                miss = golden.mismatch(ref["summary"], golden.summarize(out.value))
                if miss:
                    raise AssertionError(f"output misses its reference: {miss}")
                res["digest_mismatches"] += golden.digest(out.exact) != ref["digest"]
                res["files"] += out.files
                res["nbytes"] += out.nbytes
            except Exception as exc:
                error = exc
            finally:
                workload.release(raw)
        if error is not None:
            res["failures"].append(f"{op.key}: {type(error).__name__}: {error}")
        if traced and hasattr(workload, "work"):
            steps, updates = workload.work(op)
            res["env_steps"] += steps
            res["updates"] += updates
    res["hi"] = len(tracer.spans)
    res["wall"] = sum(res["latencies"])
    res["elapsed"] = time.perf_counter() - started
    tracer.enabled = False
    return res


def setup_probe(workload, warm_up) -> int:
    """Child side of a set-up sample: import, build inputs, one warm-up op."""
    scratch = Path(tempfile.mkdtemp(prefix="probe-", dir=RUN_DIR))
    try:
        workload.setup(workload.universe(), scratch)
        workload.output(warm_up, workload.run(warm_up, Tracer()))
        print("ready", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "belldist" / "__init__.py").is_file():
        print(f"error: no belldist sources under {SRC}; run from the root of a belldist checkout",
              file=sys.stderr)
        return 2
    use_checkout_sources()
    RUN_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()

    def pass_ops(k: int):
        return workload.pass_ops(args.seed, k)[: 3 if args.quick else None]

    warm_up = workload.pass_ops(0, 0)[0]  # the same op for every seed
    if args.setup_probe:
        return setup_probe(workload, warm_up)

    compileall.compile_dir(str(SRC), quiet=1)  # no set-up sample pays bytecode compilation
    repeats = 1 if args.quick else SETUP_REPEATS
    if workload.in_process:
        probe = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
        setup_cmd, until_ready = probe, True
    else:  # a CLI user pays the interpreter and `import belldist.cli` on every run
        setup_cmd, until_ready = [sys.executable, "-c", "import belldist.cli"], False
    setup: list[float] = []
    probes = {}
    if args.trace:
        n = 1 if args.quick else PROBE_REPEATS
        probes["import"] = statistics.median(import_seconds() for _ in range(n))
        probes["python"] = statistics.median(time_child([sys.executable, "-c", "pass"]) for _ in range(n))
        probes["span"] = span_cost()

    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    tracer = Tracer()
    try:
        workload.setup(workload.universe(), scratch)
        if workload.in_process:
            workload.run(warm_up, tracer)  # the warm-up op every set-up sample includes
        refs = golden.load(args.workload)
        deadline = start + args.seconds
        passes = []
        while True:
            # set-up sample i is taken at the first pass boundary after i / repeats of the budget
            if len(setup) < repeats and time.perf_counter() >= start + len(setup) * args.seconds / repeats:
                setup.append(time_child(setup_cmd, until_ready))
            first_op_id = sum(len(p["latencies"]) for p in passes)
            passes.append(run_pass(workload, pass_ops(len(passes)), refs, tracer, bool(args.trace),
                                   first_op_id))
            left = statistics.median(p["elapsed"] for p in passes)
            left += (repeats - len(setup)) * statistics.median(setup)
            if len(passes) >= MIN_PASSES and (args.quick or time.perf_counter() + left > deadline):
                break
        while len(setup) < repeats:
            setup.append(time_child(setup_cmd, until_ready))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.trace:
        tracer.write(RUN_DIR / f"trace-{args.workload}.json")

    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    per_pass = len(passes[0]["latencies"])
    latencies = [t for p in passes for t in p["latencies"]]  # traced when --trace 1: then only printed
    e2e = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(p["wall"] for p in passes), "s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": metric(p90(latencies) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, spread over the run",
        "wall_s": f"median of {len(passes)} passes of {per_pass} ops",
        "latency_p50_ms": f"n={len(latencies)} ops",
        "latency_p90_ms": f"n={len(latencies)} ops",
        "peak_rss_mb": "ops process" if workload.in_process else "max over CLI child processes",
    }
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"ops_per_pass={per_pass} attempted={attempted} failed={len(failures)}")
    for name, m in e2e.items():
        print(f"{name:<28}{m['value']:>14.6g} {m['unit']:<6} ({notes[name]})")
    print(f"{'error_rate':<28}{len(failures) / attempted:>14.6g} {'ratio':<6} "
          f"({len(failures)} failed / {attempted} attempted)")
    digest_misses = sum(p["digest_mismatches"] for p in passes)
    print(f"{'golden.digest_mismatches':<28}{digest_misses:>14d} {'count':<6} (exact SHA-256 misses, not failures)")
    metrics = e2e
    if args.trace:
        metrics = layer_metrics(tracer, passes, probes)
        for name, m in metrics.items():
            print(f"{name:<44}{m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
