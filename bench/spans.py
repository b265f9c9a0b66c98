"""Span recorder for the traced benchmark run.

Spans are kept in memory (a list of tuples) and written out once, when the
run ends.  The benchmark wraps each op in a root span ``op.<kind>`` and each
call it makes into a belldist layer in a child span named
``<layer>.<function>[.<variant>]``; the layer is the first dotted component.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Records (name, start, end, parent, op_id, failed) spans when enabled.

    Disabled, ``call`` is a plain function call, so the untraced run pays one
    extra Python call per layer call and nothing else.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.op_id: int | None = None
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(())
        self._stack.append(sid)
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.op_id, failed)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op_id", "failed")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")


def self_times(spans: list[tuple], lo: int, hi: int) -> list[tuple[str, float, float, bool]]:
    """(name, duration, self time, failed) for spans[lo:hi].

    Self time is the span's duration minus the durations of its direct
    children; children never outlive their parent, so this is the part of the
    interval no child covers.
    """
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _op, _failed in spans[lo:hi]:
        if parent is not None:
            child_time[parent] += end - start
    return [
        (name, end - start, end - start - child_time[lo + i], failed)
        for i, (name, start, end, _parent, _op, failed) in enumerate(spans[lo:hi])
    ]
