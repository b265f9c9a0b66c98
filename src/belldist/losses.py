"""Likelihood-derived losses over Bellman errors.

``l_loss`` is the negative mean Logistic(0, sigma) log-likelihood of the
errors with the scale-normalization constant dropped:
mean(t + 2*log(1 + exp(-t))) at t = err/sigma.  It is an even, convex
function of each error, minimized at zero with value log 4, with gradient
bounded by 1/(N*sigma).  Near zero it tracks log4 + mse_loss/2 up to a
quartic remainder.  ``mse_loss`` keeps the matching Normal convention
mean(err^2 / 2).  A NaN error, or a loss or gradient bound beyond float64,
raises ``DomainError`` naming the function, without a numpy warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _logistic_terms
from .errors import DomainError, _check_positive, _real_array

LN4 = math.log(4.0)


@dataclass(frozen=True)
class LossConfig:
    """Scale hyperparameter of the Logistic likelihood loss (fixed, not learned)."""

    sigma: float = 1.0

    def __post_init__(self):
        # an infinite sigma makes every gradient exactly 0
        _check_positive(self.sigma, "sigma")


def _finite_mean(terms: np.ndarray, name: str, sigma=None) -> float:
    # the mean of non-negative terms; one that overflows float64, in a term or
    # in the sum, raises DomainError (the terms were formed with overflow
    # warnings off), and so does a NaN term, which makes the mean NaN
    with np.errstate(over="ignore"):
        value = float(np.mean(terms))
    if value == math.inf:
        at = "" if sigma is None else f" at sigma = {sigma}"
        raise DomainError(f"{name} overflows float64{at}")
    if math.isnan(value):
        raise DomainError(f"{name}: errors must not be NaN")
    return value


def mse_loss(errors) -> float:
    """mean(err^2) / 2."""
    arr = _real_array(errors, "errors")
    with np.errstate(over="ignore"):
        terms = 0.5 * arr * arr
    return _finite_mean(terms, "mse_loss")


def l_loss(errors, cfg: LossConfig = LossConfig()) -> float:
    """mean(err/sigma + 2*log(1 + exp(-err/sigma))), computed stably."""
    arr = _real_array(errors, "errors")
    with np.errstate(over="ignore"):
        t = arr / cfg.sigma
    # the Logistic likelihood's terms, t turned into |t|: the even form
    # cannot overflow for large negative t and keeps the large-|t| asymptote
    # exact
    e = np.empty_like(t)
    _logistic_terms(t, t, e)
    e *= 2.0
    e += t
    return _finite_mean(e, "l_loss", cfg.sigma)


def _l_loss_grad_scale(n: int, sigma: float) -> float:
    # N * sigma, the divisor of the Logistic gradient; a bound 1/(N*sigma)
    # beyond float64 raises DomainError
    scale = n * sigma
    if 1.0 / scale == math.inf:
        raise DomainError(f"l_loss_grad overflows float64: its bound 1/(N*sigma) at "
                          f"N = {n}, sigma = {sigma}")
    return scale


def _l_loss_grad_kernel(errors: np.ndarray, sigma: float, scale: float,
                        out: np.ndarray | None = None) -> np.ndarray:
    # tanh(err/(2*sigma)) / scale: l_loss_grad at scale = N*sigma, and its
    # negative, bit for bit, at scale = -(N*sigma), as division is
    # sign-symmetric.  err/(2*sigma) may overflow to +-inf, where tanh
    # saturates at exactly +-1; the caller decides about the warning.
    out = np.divide(errors, 2.0 * sigma, out=out)
    np.tanh(out, out=out)
    out /= scale
    return out


def l_loss_grad(errors, cfg: LossConfig = LossConfig()) -> np.ndarray:
    """Per-element gradient of l_loss: tanh(err/(2*sigma)) / (N*sigma).

    Bounded by 1/(N*sigma) in magnitude, unlike the mse_loss gradient.  An
    err/(2*sigma) beyond float64 saturates tanh at exactly +-1; a bound
    1/(N*sigma) beyond float64, or an error that is NaN, raises DomainError.
    """
    arr = _real_array(errors, "errors")
    if np.isnan(arr).any():
        raise DomainError("l_loss_grad: errors must not be NaN")
    scale = _l_loss_grad_scale(arr.size, cfg.sigma)
    with np.errstate(over="ignore"):
        return _l_loss_grad_kernel(arr, cfg.sigma, scale)
