"""The benchmark's own tests (not part of the library suite).

    python3 -m pytest bench/test_bench.py -q

Each workload runs in ``--quick`` mode (three ops, two passes) with and
without tracing; the result must name every metric of BENCHMARK.json with
its unit and report no failed op.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import golden
from steadiness import summarize
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "11", "--seconds", "1",
           "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    error_rate = next(line for line in lines if line.startswith("error_rate"))
    assert error_rate.split()[1:3] == ["0", "ratio"]


def test_refuses_to_run_without_the_library(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_op_has_a_reference(name):
    workload = WORKLOADS[name]()
    universe = {op.key for op in workload.universe()}
    assert len(universe) == len(workload.universe())
    assert universe == set(golden.load(name))
    for seed, k in [(0, 0), (1, 0), (1, 1), (123456789, 40)]:
        ops = workload.pass_ops(seed, k)
        assert ops == workload.pass_ops(seed, k)
        assert [op.kind for op in ops] == [op.kind for op in workload.pass_ops(seed + 1, k + 1)]
        assert {op.key for op in ops} <= universe


def test_reference_comparison():
    ref = golden.summarize({"q": np.arange(3.0), "policy": np.array([1, 0]), "n": 3, "big": np.ones(100)})
    near = golden.summarize({"q": np.arange(3.0) * (1 + 1e-9), "policy": np.array([1, 0]), "n": 3,
                             "big": np.ones(100)})
    assert golden.mismatch(ref, near) is None
    far = golden.summarize({"q": np.arange(3.0) * 1.001, "policy": np.array([1, 0]), "n": 3, "big": np.ones(100)})
    assert "q[1]" in golden.mismatch(ref, far)
    flipped = golden.summarize({"q": np.arange(3.0), "policy": np.array([0, 1]), "n": 3, "big": np.ones(100)})
    assert "policy" in golden.mismatch(ref, flipped)
    assert golden.digest(np.arange(3.0)) != golden.digest(np.arange(3.0) * (1 + 1e-15) + 1e-15)


def test_spread_summary():
    row = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert row["median"] == 3.0 and row["spread"] == pytest.approx((row["q3"] - row["q1"]) / 3.0)

