"""Semantic exception hierarchy for belldist.

Public functions raise these instead of bare ValueError so callers (and the
CLI exit-code mapping) can distinguish contract violations from bugs.  The
two argument checks that nearly every module shares live here too.
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


def _check_count(value, name: str, low: int = 0) -> None:
    # a count, size, index or seed is an int or numpy integer of at least
    # low; a float, even an integral one, would be truncated or fail deep
    # inside numpy, and a bool is no count (numpy rejects True as a shape)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")


def _check_positive(value, name: str) -> None:
    # a scale, step size or temperature: NaN, 0 and +-inf all fail, and so
    # does a value that does not compare with a float (a str, None); that
    # failure is caught, not tested for first, so a number pays nothing extra
    try:
        if 0.0 < value < math.inf:
            return
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be finite and positive, got {value!r}") from None
    raise DomainError(f"{name} must be finite and positive, got {value}")
