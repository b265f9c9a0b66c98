"""Reward-scaling analysis of the expected Bellman error.

With successor rewards r_1..r_n and error temperature beta, the expected
error at scaling ratio phi is  -beta * log sum_i exp(phi * r_i / beta),
i.e. -beta*log G(phi) up to the zero-reward count.  G'(phi) is strictly
increasing, so when there is at least one positive reward and G'(1) < 0 the
derivative has a unique root phi* > 1: scaling inside [1, phi*] moves the
(negative) expectation toward zero, scaling past phi* reverses the gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError


@dataclass(frozen=True)
class RewardSample:
    """A batch of successor-action rewards with the error temperature beta."""

    rewards: np.ndarray
    beta: float

    def __post_init__(self):
        r = np.asarray(self.rewards, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise DomainError("rewards must be a non-empty 1-D vector")
        if not np.all(np.isfinite(r)):
            raise DomainError("rewards must be finite")
        if not self.beta > 0:
            raise DomainError(f"beta must be positive, got {self.beta}")
        r.setflags(write=False)
        object.__setattr__(self, "rewards", r)
        object.__setattr__(self, "beta", float(self.beta))

    @property
    def counts(self) -> tuple[int, int, int]:
        """(positive, negative, zero) reward counts."""
        r = self.rewards
        return int(np.sum(r > 0)), int(np.sum(r < 0)), int(np.sum(r == 0))


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D array, step for step as scipy 1.17's
    ``scipy.special.logsumexp`` computes it, so the bits agree: the maxima
    leave the sum as its count m, the rest is summed as exp(a - max), and a
    result that is not finite falls back to the direct log(sum(exp(a)))."""
    a_max = a.max()
    is_max = a == a_max
    m = float(np.count_nonzero(is_max))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max)) / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)


def expected_error(sample: RewardSample, phi: float) -> float:
    """Expected Bellman error -beta * logsumexp(phi * r / beta).

    Any phi > 0 is accepted; values below 1 are outside the regime the
    phi* analysis covers but are still well defined (scaling curves plot
    them), so flagging is left to ScalingCurve.  A phi * r / beta beyond
    float64 (a tiny beta or a huge phi) raises DomainError.
    """
    if not phi > 0:
        raise DomainError(f"phi must be positive, got {phi}")
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = phi * sample.rewards / sample.beta
    if not np.all(np.isfinite(scaled)):
        raise DomainError(
            f"phi * r / beta overflows float64 at phi = {phi}, beta = {sample.beta}"
        )
    return -sample.beta * _logsumexp(scaled)


def check_conditions(sample: RewardSample) -> tuple[bool, bool, float]:
    """Existence conditions for phi*: (some positive reward, G'(1) < 0, G'(1)).

    G'(1) = sum_i exp(r_i / beta) * r_i; zero rewards contribute nothing.
    """
    r = sample.rewards
    gprime1 = _gprime(sample, 1.0)
    cond1 = bool(np.any(r > 0))
    return cond1, gprime1 < 0, gprime1


def _gprime(sample: RewardSample, phi: float) -> float:
    # Only a positive reward's term can overflow, and it overflows to +inf;
    # a negative reward's term lies in [r, 0) and only underflows toward 0.
    # So an overflowed G'(phi) = +inf still has the exact sign, which is all
    # that check_conditions and find_phi_star's bracketing read from it.
    r = sample.rewards
    with np.errstate(over="ignore"):
        return float(np.sum(np.exp(phi * r / sample.beta) * r))


def find_phi_star(sample: RewardSample, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Unique root of G'(phi) on (1, inf) by bracket doubling plus bisection.

    G' is strictly increasing and tends to +inf whenever a positive reward
    exists, so once G'(1) < 0 a sign change is guaranteed and bisection
    cannot fail.
    """
    cond1, cond2, gprime1 = check_conditions(sample)
    if not cond1:
        raise PreconditionError("find_phi_star requires at least one positive reward")
    if not cond2:
        raise PreconditionError(
            f"find_phi_star requires G'(1) < 0, got G'(1) = {gprime1}"
        )
    lo, hi = 1.0, 2.0
    while _gprime(sample, hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        if _gprime(sample, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ScalingCurve:
    """Expected error along a phi grid plus the phi* existence diagnosis."""

    sample: RewardSample
    phi_grid: np.ndarray
    expectations: np.ndarray
    cond1: bool
    cond2: bool
    phi_star: float | None = None
    below_regime: np.ndarray | None = None  # phi < 1 markers

    def __post_init__(self):
        if self.below_regime is None:
            object.__setattr__(self, "below_regime", self.phi_grid < 1.0)
        for name in ("phi_grid", "expectations", "below_regime"):
            getattr(self, name).setflags(write=False)


def scaling_curve(sample: RewardSample, phi_grid) -> ScalingCurve:
    """Evaluate expected_error over a positive, strictly increasing grid."""
    grid = np.asarray(phi_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("phi grid must be a non-empty 1-D vector")
    if np.any(grid <= 0):
        raise DomainError("phi grid entries must be positive")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("phi grid must be strictly increasing")
    cond1, cond2, _ = check_conditions(sample)
    phi_star = find_phi_star(sample) if (cond1 and cond2) else None
    values = np.array([expected_error(sample, p) for p in grid])
    return ScalingCurve(
        sample=sample,
        phi_grid=grid,
        expectations=values,
        cond1=cond1,
        cond2=cond2,
        phi_star=phi_star,
        below_regime=grid < 1.0,
    )


def analytic_two_level_phi_star(r_pos: float, n_neg: int, r_neg: float, beta: float = 1.0) -> float:
    """phi* for one positive reward r_pos and n_neg copies of r_neg, in closed
    form: exp(phi*(r_pos - r_neg)/beta) = -n_neg * r_neg / r_pos.

    Used as the independent oracle for find_phi_star in tests and examples.
    """
    if r_pos <= 0 or r_neg >= 0:
        raise DomainError("need r_pos > 0 and r_neg < 0")
    ratio = -n_neg * r_neg / r_pos
    return beta * math.log(ratio) / (r_pos - r_neg)
