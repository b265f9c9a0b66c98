"""Semantic exception hierarchy for belldist.

Public functions raise these instead of bare ValueError so callers (and the
CLI exit-code mapping) can distinguish contract violations from bugs.  The
argument rules that the modules share live here too: counts and array
sizes, real numbers and real arrays, intervals (0, high), and the echo of
an argument in a message.  There is no precomputed overflow bound: a
function that can overflow float64 catches the OverflowError of the float
operation that overflows.
"""

import math

import numpy as np


class BelldistError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(BelldistError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class DegenerateDataError(BelldistError, ValueError):
    """Input data has no spread (all values equal), so fitting is undefined."""


class ScaleMismatchError(BelldistError, ValueError):
    """Two Gumbel scales that must agree (within tolerance) do not."""


class PreconditionError(BelldistError, ValueError):
    """A named precondition of the operation does not hold for these inputs."""


class ConvergenceError(BelldistError, RuntimeError):
    """An iterative solver exhausted its budget without converging."""


class TrainingError(BelldistError, RuntimeError):
    """Training diverged; carries the last finite snapshot for post-mortem."""

    def __init__(self, message, last_good=None):
        super().__init__(message)
        self.last_good = last_good


def _shown(value) -> str:
    # an argument as a message echoes it: its repr, or the size of an int too
    # long for Python to print (beyond 4,300 digits repr raises ValueError)
    try:
        return repr(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def _check_count(value, name: str, low: int = 0) -> None:
    # a count, size, index or seed is an int or numpy integer of at least
    # low; a float, even an integral one, would be truncated or fail deep
    # inside numpy, and a bool is no count (numpy rejects True as a shape)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {_shown(value)}")
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {_shown(value)}")


def _check_elements(count: int, name: str) -> None:
    # numpy refuses 2**60 eight-byte elements or more with a bare ValueError
    # ("array is too big"), not the MemoryError of a failed allocation
    if count >= 1 << 60:
        raise DomainError(f"{name} asks for {_shown(count)} array elements; numpy's limit is "
                          "2**60 - 1")


def _as_real(value, name: str) -> float:
    # value as a float; float() also reads a str ("0.5"), which is no number
    if not isinstance(value, (str, bytes, bytearray)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise DomainError(f"{name} must be a real number, got {_shown(value)}")


def _real_values(values, name: str, copy: bool = False) -> np.ndarray:
    # values, of any shape, as a float64 array; a float64 array comes back as
    # it is, neither copied (unless copy) nor scanned.  A dtype other than
    # bool, int or float, such as a str "1.5", an object, a complex number or
    # ragged nesting, is refused, except an object array of Python ints and
    # floats only: numpy keeps an int beyond int64 as an object
    try:
        arr = np.asarray(values)
        if arr.dtype == object and all(isinstance(v, (int, float)) for v in arr.flat):
            return arr.astype(float)
    except (TypeError, ValueError):  # ragged nesting
        arr = None
    except OverflowError:
        raise DomainError(f"{name} must hold integers within float64's range") from None
    if arr is None or arr.dtype.kind not in "biuf":
        raise DomainError(f"{name} must hold real numbers (bool, int or float)")
    return arr.astype(float, copy=copy)


def _real_array(values, name: str, ndim: int = 1, frozen: bool = False,
                finite: bool = False) -> np.ndarray:
    # values as a non-empty float64 array of ndim dimensions, with frozen a
    # read-only copy (the caller's array stays writable)
    arr = _real_values(values, name, copy=frozen)
    if arr.ndim != ndim or arr.size == 0:
        raise DomainError(f"{name} must be a non-empty {ndim}-D array")
    if finite and not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    if frozen:
        arr.setflags(write=False)
    return arr


def _check_positive(value, name: str, high: float = math.inf, closed: bool = False) -> float:
    # value in (0, high), or (0, high] when closed, returned as a Python float
    # so that a numpy float32 computes as the float it holds; a value that
    # does not compare with a float (a str, None) or an int beyond float64
    # fails too, caught rather than tested for first, so a number pays
    # nothing extra
    try:
        if 0.0 < value < high or (closed and value == high):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    if high == math.inf:
        raise DomainError(f"{name} must be finite and positive, got {_shown(value)}")
    raise DomainError(f"{name} must lie in (0, {high:g}{']' if closed else ')'}, "
                      f"got {_shown(value)}")
