"""Order-statistic expectations for the Logistic family and the induced
sampling error of the expected empirical CDF.

For x_(1) <= ... <= x_(N) from Logistic(A, B) the expectations are
``A + B*(H_{i-1} - H_{N-i})`` with harmonic numbers H_m.  Replacing the random
empirical CDF by its expectation gives a deterministic step function whose
variance term vanishes, so the sampling error reduces to the mean squared
bias against the true CDF with the evaluation point drawn uniformly between
the extreme expectations.  That integral has a closed form through the
antiderivatives of F and F^2 (F' = F(1-F)/B implies int F^2 = int F - B*F),
and it depends on N only: both A and B cancel exactly.  The expectations are
antisymmetric about A and F(-t) = 1 - F(t), so the integral over the upper
half of the range equals that over the lower half; only the lower half is
evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistSpec, Family, _halves
from .errors import DomainError, _check_count, _check_elements, _shown


# Kernels walk their arrays in blocks of this many elements, so that every
# temporary stays cache-sized instead of growing with n.
_BLOCK = 1 << 14

# 1.._BLOCK: a block's segment indices before its offset is added (exact:
# integers below 2**53), kept so that no call allocates them.
_INDEX = np.arange(1, _BLOCK + 1, dtype=float)
_INDEX.setflags(write=False)


# H_0..H_m for the largest m asked so far (read-only), and the extended
# partial sum H_m from which the next block's cumsum continues.
_HARMONIC = (np.zeros(1), np.zeros(1, dtype=np.longdouble))
_HARMONIC[0].setflags(write=False)


def _harmonic_table(n: int) -> np.ndarray:
    """H_0..H_n computed by cumulative summation in extended precision.

    Extended (80-bit) accumulation keeps the absolute error near 1e-13 even
    at n = 2**20, where plain float64 accumulation would lose ~1e-9.  One
    table is kept, for the largest n asked so far; a larger n extends it
    block by block, each block's cumsum starting from the previous block's
    last extended partial sum.  The additions therefore run in the same order
    as one cumsum over 1/1..1/n, and every prefix is bit-identical to it.
    The returned prefix is a read-only view.
    """
    global _HARMONIC
    _check_elements(n + 1, "n")
    table, carry = _HARMONIC
    if n >= table.size:
        grown = np.empty(n + 1)
        grown[: table.size] = table
        for start in range(table.size, n + 1, _BLOCK):
            stop = min(start + _BLOCK, n + 1)
            partial = np.cumsum(
                np.concatenate([carry, 1.0 / np.arange(start, stop, dtype=np.longdouble)])
            )
            grown[start:stop] = partial[1:]
            carry = partial[-1:]
        grown.setflags(write=False)
        table = grown
        _HARMONIC = (table, carry)
    return table[: n + 1]


def _standard_expectations(n: int) -> np.ndarray:
    # E_i = H_{i-1} - H_{n-i} for i = 1..n
    tab = _harmonic_table(n)
    return tab[:-1] - tab[-2::-1]


@dataclass(frozen=True)
class OrderStatTable:
    """All n order-statistic expectations of Logistic(dist.location, dist.scale)."""

    n: int
    dist: DistSpec
    expectations: np.ndarray

    def __post_init__(self):
        self.expectations.setflags(write=False)


def order_stat_table(n: int, a: float = 0.0, b: float = 1.0) -> OrderStatTable:
    """E[x_(i)] = a + b*(H_{i-1} - H_{n-i}) for i = 1..n.

    The scale is checked by the ``DistSpec``, built before the expectations.
    An expectation beyond float64 raises DomainError.
    """
    _check_count(n, "n", 1)
    dist = DistSpec(Family.LOGISTIC, a, b)
    try:
        with np.errstate(over="raise"):
            return OrderStatTable(n=n, dist=dist, expectations=a + b * _standard_expectations(n))
    except FloatingPointError:
        raise DomainError(f"order_stat_table overflows float64 at a = {a}, b = {b}") from None


def order_stat_expectation(n: int, i: int, a: float, b: float) -> float:
    """E[x_(i)] of n Logistic(a, b) draws: entry i - 1 of ``order_stat_table``."""
    _check_count(i, "order index")  # n is checked by order_stat_table
    if not 1 <= i <= n:
        raise DomainError(f"order index must satisfy 1 <= i <= n, got i={_shown(i)}, n={_shown(n)}")
    return float(order_stat_table(n, a, b).expectations[i - 1])


@dataclass(frozen=True)
class SamplingErrorReport:
    n: int
    s_e: float  # all bias: the expected empirical CDF is deterministic, so no variance


def _point_terms(h: np.ndarray, e: np.ndarray, cdf: np.ndarray) -> None:
    # For grid points h <= 0: the CDF exp(h) / (1 + exp(h)) into ``cdf`` and
    # the standard logistic antiderivative log(1 + exp(h)) over ``h``, from
    # one exponential per point kept in ``e``.
    np.exp(h, out=e)
    np.add(e, 1.0, out=cdf)
    np.divide(e, cdf, out=cdf)
    np.log1p(e, out=h)


def sampling_error(n: int, a: float = 0.0, b: float = 1.0) -> SamplingErrorReport:
    """Mean squared gap between the expected empirical CDF of n Logistic(a, b)
    draws and the true CDF, averaged uniformly over the order-statistic range.

    Evaluated through the closed-form segment integrals
        int_{e_i}^{e_{i+1}} (F - i/n)^2 dt
          = (1 - 2c) * (L(e_{i+1}) - L(e_i)) - B*(F(e_{i+1}) - F(e_i)) + c^2 * (e_{i+1} - e_i)
    in standardized coordinates, where L is the F antiderivative and c = i/n.
    The grid is antisymmetric, e_{n+1-i} = -e_i exactly in floating point,
    and F(-t) = 1 - F(t), so segment i equals segment n - i.  Only the
    (n - 1) // 2 segments on t <= 0 are evaluated, and counted twice; there
    c <= 1/2, which keeps the formula clear of the cancellation it suffers
    near c = 1.  For even n the middle segment [-2/n, 2/n] at c = 1/2 is its
    own mirror image, with integral 1/n - tanh(1/n).
    The value depends only on n; (a, b) are validated as a ``DistSpec`` but
    cancel identically.
    """
    _check_count(n, "n", 2)
    DistSpec(Family.LOGISTIC, a, b)
    # One pass over blocks of segments [start, start + m): the grid points
    # E_{start+1}..E_{start+m+1} are formed from the harmonic table and each
    # transcendental is evaluated once per point, not once per segment end.
    # Every step writes into the block's own segments or into three
    # block-sized buffers allocated once per part.  From 2**15 segments on,
    # the two halves of ``segments`` are filled on two threads, each with its
    # own three buffers.  Each segment is computed point by point, so its bits
    # depend neither on the blocks nor on the halves.
    tab = _harmonic_table(n)
    rev = tab[::-1]
    half = (n - 1) // 2
    segments = np.empty(half)

    def fill(first, part):
        width = min(_BLOCK, part.size)
        pts, scratch, cdf = (np.empty(width + 1) for _ in range(3))
        for lo in range(0, part.size, _BLOCK):
            m = min(_BLOCK, part.size - lo)
            start = first + lo
            h, d, f, seg = pts[: m + 1], scratch[:m], cdf[: m + 1], part[lo : lo + m]
            grid = tab[start : start + m + 1], rev[start + 1 : start + m + 2]
            np.subtract(*grid, out=h)
            _point_terms(h, scratch[: m + 1], f)
            # (1 - 2c) * diff(L) - diff(F) + c*c * diff(h), in that order,
            # at c = i/n; L has replaced the grid points, which are formed
            # again for the last term
            np.add(_INDEX[:m], start, out=seg)
            seg /= n
            seg *= 2.0
            np.subtract(1.0, seg, out=seg)
            seg *= np.subtract(h[1:], h[:m], out=d)
            seg -= np.subtract(f[1:], f[:m], out=d)
            np.subtract(*grid, out=h)
            np.subtract(h[1:], h[:m], out=d)
            c = np.add(_INDEX[:m], start, out=f[:m])
            c /= n
            np.multiply(c, c, out=c)
            d *= c
            seg += d
        return ()

    _halves(fill, segments)
    middle = 1.0 / n - math.tanh(1.0 / n) if n % 2 == 0 else 0.0
    # E_n - E_1 = H_{n-1} - (-H_{n-1}), exact in floating point since H_0 = 0;
    # the factor 2 of the width cancels the one of the two mirrored halves
    s_e = float((np.sum(segments) + 0.5 * middle) / tab[n - 1])
    return SamplingErrorReport(n=n, s_e=s_e)
