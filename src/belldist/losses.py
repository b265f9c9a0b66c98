"""Likelihood-derived losses over Bellman errors.

``l_loss`` is the negative mean Logistic(0, sigma) log-likelihood of the
errors with the scale-normalization constant dropped:
mean(t + 2*log(1 + exp(-t))) at t = err/sigma.  It is an even, convex
function of each error, minimized at zero with value log 4, with gradient
bounded by 1/(N*sigma).  Near zero it tracks log4 + mse_loss/2 up to a
quartic remainder.  ``mse_loss`` keeps the matching Normal convention
mean(err^2 / 2).  A loss, or a gradient bound, beyond float64 raises
``DomainError`` naming the function, without a numpy warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

LN4 = math.log(4.0)


@dataclass(frozen=True)
class LossConfig:
    """Scale hyperparameter of the Logistic likelihood loss (fixed, not learned)."""

    sigma: float = 1.0

    def __post_init__(self):
        # an infinite sigma makes every gradient exactly 0
        if not 0.0 < self.sigma < math.inf:
            raise DomainError(f"sigma must be finite and positive, got {self.sigma}")


def _as_errors(errors) -> np.ndarray:
    arr = np.asarray(errors, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("errors must be a non-empty 1-D vector")
    return arr


def _finite_mean(terms: np.ndarray, name: str, sigma=None) -> float:
    # the mean of non-negative terms; one that overflows float64, in a term or
    # in the sum, raises DomainError (the terms were formed with overflow
    # warnings off)
    with np.errstate(over="ignore"):
        value = float(np.mean(terms))
    if value == math.inf:
        at = "" if sigma is None else f" at sigma = {sigma}"
        raise DomainError(f"{name} overflows float64{at}")
    return value


def mse_loss(errors) -> float:
    """mean(err^2) / 2."""
    arr = _as_errors(errors)
    with np.errstate(over="ignore"):
        terms = 0.5 * arr * arr
    return _finite_mean(terms, "mse_loss")


def _lloss_terms(t: np.ndarray) -> np.ndarray:
    # t + 2*log(1+exp(-t)) is even in t; evaluating at |t| avoids overflow
    # for large negative t and keeps the large-|t| asymptote exact.
    at = np.abs(t)
    e = np.negative(at)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    e *= 2.0
    e += at
    return e


def l_loss(errors, cfg: LossConfig = LossConfig()) -> float:
    """mean(err/sigma + 2*log(1 + exp(-err/sigma))), computed stably."""
    arr = _as_errors(errors)
    with np.errstate(over="ignore"):
        t = arr / cfg.sigma
    return _finite_mean(_lloss_terms(t), "l_loss", cfg.sigma)


def l_loss_grad(errors, cfg: LossConfig = LossConfig()) -> np.ndarray:
    """Per-element gradient of l_loss: tanh(err/(2*sigma)) / (N*sigma).

    Bounded by 1/(N*sigma) in magnitude, unlike the mse_loss gradient.  An
    err/(2*sigma) beyond float64 saturates tanh at exactly +-1; a bound
    1/(N*sigma) beyond float64 raises DomainError.
    """
    arr = _as_errors(errors)
    scale = arr.size * cfg.sigma
    if 1.0 / scale == math.inf:
        raise DomainError(f"l_loss_grad overflows float64: its bound 1/(N*sigma) at "
                          f"N = {arr.size}, sigma = {cfg.sigma}")
    if 2.0 * cfg.sigma >= 1.0:  # err/(2*sigma) cannot leave float64's range
        return np.tanh(arr / (2.0 * cfg.sigma)) / scale
    with np.errstate(over="ignore"):
        return np.tanh(arr / (2.0 * cfg.sigma)) / scale
