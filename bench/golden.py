"""Reference outputs for benchmark ops.

Every op's output is reduced to a compact *summary* (small arrays kept
whole, large arrays reduced to count / sum / abs-sum / min / max) that is
compared against the stored reference: floats at ``RTOL`` relative (with
``ATOL`` absolute floor for values near zero), integers, booleans and strings
exactly.  A miss is an op failure.

Alongside, a SHA-256 *digest* of the full output bytes is compared exactly.
A digest miss is only counted (``golden.digest_mismatches``): a change that
reorders floating-point sums shows up there without failing the op.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

RTOL = 1e-6
ATOL = 1e-9
FULL_LIMIT = 64  # arrays up to this many elements are stored element by element

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def summarize(obj):
    """JSON-ready summary of an op output (dicts, lists, arrays, scalars)."""
    if isinstance(obj, dict):
        return {str(k): summarize(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [summarize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        flat = obj.ravel()
        if flat.dtype.kind in "biu":
            ints = flat.astype(np.int64)
            if ints.size <= FULL_LIMIT:
                return ints.tolist()
            return {"n": int(ints.size), "sum": int(ints.sum()),
                    "min": int(ints.min()), "max": int(ints.max())}
        vals = flat.astype(float)
        if vals.size <= FULL_LIMIT:
            return vals.tolist()
        finite = vals[np.isfinite(vals)]
        return {
            "n": int(vals.size),
            "n_finite": int(finite.size),
            "sum": float(finite.sum()),
            "abs_sum": float(np.abs(finite).sum()),
            "min": float(finite.min()) if finite.size else 0.0,
            "max": float(finite.max()) if finite.size else 0.0,
        }
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot summarize {type(obj).__name__}")


def _feed(h, obj) -> None:
    if isinstance(obj, dict):
        h.update(b"{")
        for k in sorted(obj):
            h.update(str(k).encode() + b":")
            _feed(h, obj[k])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for v in obj:
            _feed(h, v)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(f"a{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj) + obj)
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i" + str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        h.update(b"s" + obj.encode())
    elif obj is None:
        h.update(b"N")
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj) -> str:
    """SHA-256 over the exact bytes of an op output."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def mismatch(ref, got, path: str = "$") -> str | None:
    """First difference between a reference summary and a new one, or None."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            return f"{path}: keys differ"
        for k in sorted(ref):
            found = mismatch(ref[k], got[k], f"{path}.{k}")
            if found:
                return found
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return f"{path}: length differs"
        for i, (r, g) in enumerate(zip(ref, got)):
            found = mismatch(r, g, f"{path}[{i}]")
            if found:
                return found
        return None
    if isinstance(ref, float):
        if not isinstance(got, float):
            return f"{path}: expected a float, got {got!r}"
        if math.isnan(ref) and math.isnan(got):
            return None
        if math.isclose(ref, got, rel_tol=RTOL, abs_tol=ATOL):
            return None
        return f"{path}: {got!r} differs from reference {ref!r}"
    if type(ref) is not type(got) or ref != got:
        return f"{path}: {got!r} differs from reference {ref!r}"
    return None


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load(workload: str) -> dict:
    """{op key: {"summary": ..., "digest": ...}} for one workload."""
    return json.loads(reference_path(workload).read_text())["ops"]


def save(workload: str, entries: dict) -> None:
    lines = [f"  {json.dumps(k)}: {json.dumps(entries[k], sort_keys=True)}" for k in sorted(entries)]
    text = ('{\n "rtol": %r,\n "atol": %r,\n "ops": {\n%s\n }\n}\n'
            % (RTOL, ATOL, ",\n".join(lines)))
    reference_path(workload).write_text(text)
