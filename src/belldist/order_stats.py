"""Order-statistic expectations for the Logistic family and the induced
sampling error of the expected empirical CDF.

For x_(1) <= ... <= x_(N) from Logistic(A, B) the expectations are
``A + B*(H_{i-1} - H_{N-i})`` with harmonic numbers H_m.  Replacing the random
empirical CDF by its expectation gives a deterministic step function whose
variance term vanishes, so the sampling error reduces to the mean squared
bias against the true CDF with the evaluation point drawn uniformly between
the extreme expectations.  That integral has a closed form through the
antiderivatives of F and F^2 (F' = F(1-F)/B implies int F^2 = int F - B*F),
and it depends on N only: both A and B cancel exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import DistSpec, Family
from .errors import DomainError


# Kernels walk their arrays in blocks of this many elements, so that every
# temporary stays cache-sized instead of growing with n.
_BLOCK = 1 << 14


@lru_cache(maxsize=64)
def _harmonic_table(n: int) -> np.ndarray:
    """H_0..H_n computed by cumulative summation in extended precision.

    Extended (80-bit) accumulation keeps the absolute error near 1e-13 even
    at n = 2**20, where plain float64 accumulation would lose ~1e-9.  Each
    block's cumsum starts from the previous block's last extended partial
    sum, so the additions run in the same order as one cumsum over 1/1..1/n
    and the table is bit-identical to it.  The cached table is read-only.
    """
    table = np.empty(n + 1)
    table[0] = 0.0
    carry = np.zeros(1, dtype=np.longdouble)
    for start in range(1, n + 1, _BLOCK):
        stop = min(start + _BLOCK, n + 1)
        partial = np.cumsum(
            np.concatenate([carry, 1.0 / np.arange(start, stop, dtype=np.longdouble)])
        )
        table[start:stop] = partial[1:]
        carry = partial[-1:]
    table.setflags(write=False)
    return table


def harmonic(m: int) -> float:
    """H_m = sum_{k=1..m} 1/k, with H_0 = 0."""
    if m < 0:
        raise DomainError(f"harmonic number index must be >= 0, got {m}")
    return float(_harmonic_table(m)[m])


def _standard_expectations(n: int) -> np.ndarray:
    # E_i = H_{i-1} - H_{n-i} for i = 1..n
    tab = _harmonic_table(n)
    return tab[:-1] - tab[-2::-1]


def order_stat_expectation(n: int, i: int, a: float, b: float) -> float:
    """E[x_(i)] of n Logistic(a, b) draws: b*(H_{i-1} - H_{n-i}) + a."""
    if not 1 <= i <= n:
        raise DomainError(f"order index must satisfy 1 <= i <= n, got i={i}, n={n}")
    if not b > 0:
        raise DomainError(f"scale must be positive, got {b}")
    h = _harmonic_table(n)
    return b * float(h[i - 1] - h[n - i]) + a


@dataclass(frozen=True)
class OrderStatTable:
    """All n order-statistic expectations of Logistic(dist.location, dist.scale)."""

    n: int
    dist: DistSpec
    expectations: np.ndarray

    def __post_init__(self):
        self.expectations.setflags(write=False)


def order_stat_table(n: int, a: float = 0.0, b: float = 1.0) -> OrderStatTable:
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not b > 0:
        raise DomainError(f"scale must be positive, got {b}")
    return OrderStatTable(
        n=n,
        dist=DistSpec(Family.LOGISTIC, a, b),
        expectations=a + b * _standard_expectations(n),
    )


@dataclass(frozen=True)
class SamplingErrorReport:
    n: int
    s_e: float
    bias: float
    variance: float  # identically zero: the expected empirical CDF is deterministic


def _softplus(t: np.ndarray) -> np.ndarray:
    # Antiderivative of the standard logistic CDF: log(1 + exp(t)), stable.
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def sampling_error(n: int, a: float = 0.0, b: float = 1.0) -> SamplingErrorReport:
    """Mean squared gap between the expected empirical CDF of n Logistic(a, b)
    draws and the true CDF, averaged uniformly over the order-statistic range.

    Evaluated through the closed-form segment integrals
        int_{e_i}^{e_{i+1}} (F - i/n)^2 dt
          = (1 - 2c) * (L(e_{i+1}) - L(e_i)) - B*(F(e_{i+1}) - F(e_i)) + c^2 * (e_{i+1} - e_i)
    in standardized coordinates, where L is the F antiderivative and c = i/n.
    The value depends only on n; (a, b) are validated but cancel identically.
    """
    if n < 2:
        raise DomainError(f"sampling_error requires n >= 2, got {n}")
    if not b > 0:
        raise DomainError(f"scale must be positive, got {b}")
    # One pass over blocks of segments [start, stop): the grid points
    # E_{start+1}..E_{stop+1} are formed from the harmonic table and each
    # transcendental is evaluated once per point, not once per segment end.
    tab = _harmonic_table(n)
    rev = tab[::-1]
    segments = np.empty(n - 1)
    for start in range(0, n - 1, _BLOCK):
        stop = min(start + _BLOCK, n - 1)
        h = tab[start : stop + 1] - rev[start + 1 : stop + 2]
        big_l = np.diff(_softplus(h))
        f = np.diff(1.0 / (1.0 + np.exp(-h)))
        c = np.arange(start + 1, stop + 1) / n
        segments[start:stop] = (1.0 - 2.0 * c) * big_l - f + c * c * np.diff(h)
    # E_n - E_1 = H_{n-1} - (-H_{n-1}), exact in floating point since H_0 = 0
    s_e = float(np.sum(segments) / (2.0 * tab[n - 1]))
    return SamplingErrorReport(n=n, s_e=s_e, bias=s_e, variance=0.0)


def empirical_cdf_expectation(n: int, a: float, b: float, t) -> float | np.ndarray:
    """Step function i/n where i counts order-statistic expectations <= t."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not b > 0:
        raise DomainError(f"scale must be positive, got {b}")
    exps = a + b * _standard_expectations(n)
    counts = np.searchsorted(exps, np.asarray(t, dtype=float), side="right")
    out = counts / n
    return out if out.ndim else float(out)
