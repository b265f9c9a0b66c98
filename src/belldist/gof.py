"""Goodness-of-fit battery: two-sided KS statistic plus binned-histogram SSE/RMSE/R^2.

The KS statistic is bin-free; the histogram metrics compare the density-
normalized histogram against the model density at bin centers and therefore
move with the bin count, which is why both are reported side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import DistSpec, Family, SampleBatch
from .errors import DegenerateDataError, DomainError, _check_count, _check_elements


# Batches above _KS_DIRECT points are cut into blocks of _KS_BLOCK sorted
# points; candidate blocks are evaluated _KS_CHUNK at a time.  _KS_SLACK
# covers ulp-level rounding that makes ``cdf`` fall slightly where it should rise.
# The block pass costs a few dozen small numpy calls, and it prunes well only
# when a block's ECDF width 64/n is small against the KS scale 1/sqrt(n);
# measured against the full evaluation it breaks even near n = 2e4 and is
# 2 to 10 times faster from n = 2**15 + 1 up.
_KS_DIRECT = 1 << 15
_KS_BLOCK = 64
_KS_CHUNK = 64
_KS_SLACK = 1e-12


def _max_gap(f: np.ndarray, rank: np.ndarray, n: int) -> float:
    # Largest ECDF gap at sorted points of 0-based rank ``rank`` (exact
    # integers held as floats) with CDF values f: (rank+1)/n - f just after
    # the jump and f - rank/n just before it.
    return max(float(np.max((rank + 1.0) / n - f)), float(np.max(f - rank / n)))


def ks_statistic(data: SampleBatch, d: DistSpec) -> float:
    """Two-sided KS statistic: sup_x |F_n(x) - F(x)| between the empirical CDF
    of ``data`` and ``cdf(d, .)``.

    F_n jumps at each sorted point x_(i), so the sup is the max over i of
    |i/n - F(x_(i))| (just after the jump) and |(i-1)/n - F(x_(i))| (just
    before it).  Ties need no special case: a tied run spans both extremes.
    As (i-1)/n < i/n, the larger of the two is the larger of i/n - F(x_(i))
    and F(x_(i)) - (i-1)/n, so no absolute value is needed.  The sorted
    values come from ``data.sorted``, which sorts each batch once.

    Batches of up to 2**15 points evaluate F at every point.  Larger ones are
    cut into blocks of 64 sorted points, and F is first evaluated only at each
    block's first and last point.  F is monotone, so no point of the block
    of sorted points a to b (counting from 1) has a gap above
    max(b/n - F(x_(a)), F(x_(b)) - (a-1)/n); float subtraction and division
    round monotonically, so this bound holds for the computed gaps too, not
    just for the exact ones.  F is then evaluated at every point of the
    candidates, 64 blocks at a time: the blocks whose bound reaches the
    largest gap at the block ends and the tail, less 1e-12 for ulp-level
    rounding in ``cdf``.  The block holding the largest gap is always among
    them, so the result is the same float as the max over all points.
    """
    x = data.sorted
    n = x.size
    if n <= _KS_DIRECT:
        return _max_gap(dist.cdf(d, x), np.arange(n, dtype=float), n)
    tail = n - n % _KS_BLOCK  # rank of the first point after the last full block
    blocks = x[:tail].reshape(-1, _KS_BLOCK)
    first = np.arange(0, tail, _KS_BLOCK, dtype=float)  # rank of each block's first point
    ends = dist.cdf(d, blocks[:, [0, -1]])
    bound = np.maximum((first + _KS_BLOCK) / n - ends[:, 0], ends[:, 1] - first / n)
    best = _max_gap(ends, first[:, None] + [0.0, _KS_BLOCK - 1.0], n)
    if tail < n:  # the last n % 64 points are evaluated in full
        best = max(best, _max_gap(dist.cdf(d, x[tail:]), np.arange(tail, n, dtype=float), n))
    lane = np.arange(_KS_BLOCK, dtype=float)
    candidates = np.flatnonzero(bound >= best - _KS_SLACK)
    for start in range(0, candidates.size, _KS_CHUNK):
        chunk = candidates[start:start + _KS_CHUNK]
        best = max(best, _max_gap(dist.cdf(d, blocks[chunk]), first[chunk, None] + lane, n))
    return best


def freedman_diaconis_bins(values: np.ndarray) -> int:
    # on a quarter of the values, whose quartile gap, twice that gap and range
    # stay within float64 however wide the data; a power-of-two scaling is
    # exact above 2**-1020, so the ratio below keeps the unscaled one's bits
    quarter = np.multiply(values, 0.25)
    q75, q25 = np.percentile(quarter, [75, 25])
    iqr = q75 - q25
    if iqr <= 0:
        return 50
    n = len(values)
    width = 2.0 * iqr / n ** (1.0 / 3.0)
    span = quarter.max() - quarter.min()
    # quartiles far inside the range make span / width huge, even infinite:
    # the count is capped at one bin per value while it is still a float
    with np.errstate(over="ignore", divide="ignore"):
        return max(2, int(np.ceil(min(span / width, n))))


def histogram_fit_metrics(
    data: SampleBatch, d: DistSpec, n_bins: int = 50
) -> tuple[float, float, float]:
    """(sse, rmse, r2) of an ``n_bins``-bin density histogram against
    pdf(d, bin centers).

    r2 is the coefficient of determination against the histogram's own mean.
    """
    values = data.values
    # the span overflows for data wider than float64, and the heights scale as
    # 1 / span: for a tiny span they, their squares or the model density
    # overflow; numpy's refusal to bin and the finite check below report them
    with np.errstate(over="ignore", invalid="ignore"):
        span = float(values.max() - values.min())
        if span == 0.0:
            raise DegenerateDataError("histogram metrics require data with spread")
        _check_count(n_bins, "n_bins", 2)
        _check_elements(n_bins + 1, "n_bins")  # the bin edges
        try:
            heights, edges = np.histogram(values, bins=int(n_bins), density=True)
        except ValueError as exc:  # a span beyond float64, or too narrow to part
            raise DomainError(f"numpy cannot cut the data range {span!r} into {n_bins} "
                              "finite bins") from exc
        centers = 0.5 * (edges[:-1] + edges[1:])
        model = np.asarray(dist.pdf(d, centers))
        sse = float(np.sum((heights - model) ** 2))
        denom = float(np.sum((heights - heights.mean()) ** 2))
    if not (math.isfinite(sse) and math.isfinite(denom)):
        raise DomainError("histogram metrics overflow float64: the density heights are too "
                          "large to square")
    rmse = float(np.sqrt(sse / n_bins))
    r2 = 1.0 - sse / denom if denom > 0 else float("-inf")
    return sse, rmse, r2


@dataclass(frozen=True)
class FitReport:
    family: Family
    params: DistSpec
    ks: float
    sse: float
    rmse: float
    r2: float
    n_bins: int
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "location": self.params.location,
            "scale": self.params.scale,
            "ks": self.ks,
            "sse": self.sse,
            "rmse": self.rmse,
            "r2": self.r2,
            "n_bins": self.n_bins,
            "n_samples": self.n_samples,
        }


def rank_families(data: SampleBatch, n_bins: int | str = 50) -> list[FitReport]:
    """Fit all three families by MLE and sort ascending by KS statistic.

    ``n_bins`` is an integer >= 2 or "fd", which the Freedman-Diaconis rule
    resolves to one bin count for the whole batch.
    """
    fits = [dist.fit_mle(family, data) for family in Family]
    if n_bins == "fd":
        n_bins = freedman_diaconis_bins(data.values)
    reports = [
        FitReport(family, fitted, ks_statistic(data, fitted),
                  *histogram_fit_metrics(data, fitted, n_bins), int(n_bins), len(data))
        for family, fitted in zip(Family, fits)
    ]
    return sorted(reports, key=lambda r: r.ks)
