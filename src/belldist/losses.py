"""Likelihood-derived losses over Bellman errors.

``l_loss`` is the negative mean Logistic(0, sigma) log-likelihood of the
errors with the scale-normalization constant dropped:
mean(t + 2*log(1 + exp(-t))) at t = err/sigma.  It is an even, convex
function of each error, minimized at zero with value log 4, with gradient
bounded by 1/(N*sigma).  Near zero it tracks log4 + mse_loss/2 up to a
quartic remainder.  ``mse_loss`` keeps the matching Normal convention
mean(err^2 / 2).
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


def mse_loss(errors) -> float:
    """mean(err^2) / 2."""
    arr = _as_errors(errors)
    return float(np.mean(0.5 * arr * arr))


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
    return float(np.mean(_lloss_terms(arr / cfg.sigma)))


def l_loss_grad(errors, cfg: LossConfig = LossConfig()) -> np.ndarray:
    """Per-element gradient of l_loss: tanh(err/(2*sigma)) / (N*sigma).

    Bounded by 1/(N*sigma) in magnitude, unlike the mse_loss gradient.
    """
    arr = _as_errors(errors)
    return np.tanh(arr / (2.0 * cfg.sigma)) / (arr.size * cfg.sigma)
