"""Semantic exception hierarchy for belldist.

Public functions raise these instead of bare ValueError so callers (and the
CLI exit-code mapping) can distinguish contract violations from bugs.
"""


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
