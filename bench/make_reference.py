#!/usr/bin/env python3
"""Regenerate ``bench/reference/<workload>.json`` from the current sources.

    python3 bench/make_reference.py [workload ...]

Runs every op in each workload's universe once and stores its summary and
digest.  Only regenerate when a change is *meant* to alter outputs, and say
why in CHANGES.md; a run whose outputs miss the stored references fails.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import golden
from run import RUN_DIR, use_checkout_sources
from spans import Tracer
from workloads import WORKLOADS


def build(name: str) -> dict:
    workload = WORKLOADS[name]()
    ops = workload.universe()
    scratch = tempfile.mkdtemp(prefix=f"reference-{name}-", dir=RUN_DIR)
    entries = {}
    try:
        workload.setup(ops, Path(scratch))
        for op in ops:
            raw = workload.run(op, Tracer())
            try:
                out = workload.output(op, raw)
            finally:
                workload.release(raw)
            entries[op.key] = {"summary": golden.summarize(out.value), "digest": golden.digest(out.exact)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return entries


def main(argv: list[str]) -> int:
    use_checkout_sources()
    RUN_DIR.mkdir(exist_ok=True)
    for name in argv or sorted(WORKLOADS):
        entries = build(name)
        golden.save(name, entries)
        print(f"{name}: {len(entries)} reference outputs -> {golden.reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
