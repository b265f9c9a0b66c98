"""Reward-scaling analysis of the expected Bellman error.

With successor rewards r_1..r_n and error temperature beta, the expected
error at scaling ratio phi is  -beta * log sum_i exp(phi * r_i / beta),
i.e. -beta*log G(phi) up to the zero-reward count.  G'(phi) is strictly
increasing, so when there is at least one positive reward and G'(1) < 0 the
derivative has a unique root phi* > 1: scaling inside [1, phi*] moves the
(negative) expectation toward zero, scaling past phi* reverses the gain.
A scaling curve takes its whole grid through the package's numpy
log-sum-exp at once, as a (grid x rewards) array, so it never imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _logsumexp
from .errors import DomainError, PreconditionError, _check_positive, _real_array


@dataclass(frozen=True)
class RewardSample:
    """A read-only copy of successor-action rewards, and the temperature beta."""

    rewards: np.ndarray
    beta: float

    def __post_init__(self):
        r = _real_array(self.rewards, "rewards", frozen=True, finite=True)
        object.__setattr__(self, "rewards", r)
        object.__setattr__(self, "beta", _check_positive(self.beta, "beta"))


# Most products phi * r in one _expectations block: a long reward vector
# takes the grid a few points at a time, so memory stays linear in its length
_BLOCK = 1 << 16


def _expectations(sample: RewardSample, phi: np.ndarray) -> np.ndarray:
    # -beta * logsumexp(phi * r / beta) for each phi of a 1-D grid, one
    # (grid x rewards) log-sum-exp per block of grid points.  A product
    # phi * r beyond float64 is +-inf, which the log-sum-exp kernel reports;
    # an expectation beyond float64 is -inf, reported here
    r, beta = sample.rewards, sample.beta
    rows = max(1, _BLOCK // r.size)
    with np.errstate(over="ignore"):
        out = np.concatenate([-beta * _logsumexp(np.multiply.outer(phi[i:i + rows], r), beta)
                              for i in range(0, phi.size, rows)])
    if np.isinf(out).any():
        raise DomainError(f"the expected error -beta * logsumexp(phi * r / beta) overflows "
                          f"float64 at beta = {beta}")
    return out


def expected_error(sample: RewardSample, phi: float) -> float:
    """Expected Bellman error -beta * logsumexp(phi * r / beta).

    Any finite phi > 0 is accepted; values below 1 are outside the regime the
    phi* analysis covers but are still well defined (scaling curves plot
    them), so flagging is left to ScalingCurve.  A phi * r / beta beyond
    float64 (a tiny beta or a huge phi) raises DomainError.
    """
    _check_positive(phi, "phi")
    return float(_expectations(sample, np.array([phi], dtype=float))[0])


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


def find_phi_star(sample: RewardSample) -> float:
    """Unique root of G'(phi) on (1, inf) by bracket doubling plus bisection.

    G' is strictly increasing and tends to +inf whenever a positive reward
    exists, so once G'(1) < 0 a sign change is guaranteed and bisection
    cannot fail.  Bisection stops at a bracket narrower than 1e-10, or once
    the bracket ends are adjacent floats (phi* above about 2**19, where the
    float spacing exceeds 1e-10) and the midpoint equals one of them.  A
    phi* above 2**1023, where the next bracket end would pass float64's
    largest value, raises DomainError.
    """
    cond1, cond2, gprime1 = check_conditions(sample)
    if not cond1:
        raise PreconditionError("find_phi_star requires at least one positive reward")
    if not cond2:
        raise PreconditionError(
            f"find_phi_star requires G'(1) < 0, got G'(1) = {gprime1}"
        )
    return _bisect_phi_star(sample)


def _bisect_phi_star(sample: RewardSample) -> float:
    # find_phi_star's search, for a sample already known to meet both conditions
    lo, hi = 1.0, 2.0
    while _gprime(sample, hi) < 0.0:
        if hi == 2.0**1023:
            raise DomainError("phi* lies above 2**1023, beyond float64's range")
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-10 or mid == lo or mid == hi:
            return mid
        if _gprime(sample, mid) < 0.0:
            lo = mid
        else:
            hi = mid


@dataclass(frozen=True)
class ScalingCurve:
    """Expected error along a phi grid plus the phi* existence diagnosis."""

    phi_grid: np.ndarray
    expectations: np.ndarray
    cond1: bool
    cond2: bool
    phi_star: float | None = None

    def __post_init__(self):
        self.phi_grid.setflags(write=False)
        self.expectations.setflags(write=False)

    @property
    def below_regime(self) -> np.ndarray:
        """phi < 1 markers: grid points outside the regime the phi* analysis covers."""
        return self.phi_grid < 1.0


def scaling_curve(sample: RewardSample, phi_grid) -> ScalingCurve:
    """Evaluate expected_error over a positive, strictly increasing grid (copied)."""
    grid = _real_array(phi_grid, "phi grid", frozen=True)
    if not np.all((grid > 0) & (grid < math.inf)):
        raise DomainError("phi grid entries must be finite and positive")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("phi grid must be strictly increasing")
    cond1, cond2, _ = check_conditions(sample)
    phi_star = _bisect_phi_star(sample) if (cond1 and cond2) else None
    return ScalingCurve(
        phi_grid=grid,
        expectations=_expectations(sample, grid),
        cond1=cond1,
        cond2=cond2,
        phi_star=phi_star,
    )
