"""Goodness-of-fit battery: two-sided KS statistic plus binned-histogram SSE/RMSE/R^2.

The KS statistic is bin-free; the histogram metrics compare the density-
normalized histogram against the model density at bin centers and therefore
move with the bin count, which is why both are reported side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import DistSpec, Family, SampleBatch
from .errors import DegenerateDataError, DomainError


def ks_statistic(data: SampleBatch, d: DistSpec) -> float:
    """Two-sided KS statistic: sup_x |F_n(x) - F(x)| between the empirical CDF
    of ``data`` and ``cdf(d, .)``.

    F_n jumps at each sorted point x_(i), so the sup is the max over i of
    |i/n - F(x_(i))| (just after the jump) and |(i-1)/n - F(x_(i))| (just
    before it).  Ties need no special case: a tied run spans both extremes.
    As (i-1)/n < i/n, the larger of the two is the larger of i/n - F(x_(i))
    and F(x_(i)) - (i-1)/n, so no absolute value is needed.  The sorted
    values come from ``data.sorted``, which sorts each batch once.
    """
    x = data.sorted
    n = x.size
    f = dist.cdf(d, x)
    grid = np.arange(n + 1, dtype=float)  # exact: integers below 2**53
    grid /= n
    gap = np.subtract(grid[1:], f)
    above = np.max(gap)
    np.subtract(f, grid[:-1], out=gap)
    return float(max(above, np.max(gap)))


def freedman_diaconis_bins(values: np.ndarray) -> int:
    q75, q25 = np.percentile(values, [75, 25])
    iqr = q75 - q25
    if iqr <= 0:
        return 50
    width = 2.0 * iqr / len(values) ** (1.0 / 3.0)
    span = float(values.max() - values.min())
    return max(2, int(np.ceil(span / width)))


def histogram_fit_metrics(
    data: SampleBatch, d: DistSpec, n_bins: int = 50
) -> tuple[float, float, float]:
    """(sse, rmse, r2) of an ``n_bins``-bin density histogram against
    pdf(d, bin centers).

    r2 is the coefficient of determination against the histogram's own mean.
    """
    values = data.values
    if float(values.max() - values.min()) == 0.0:
        raise DegenerateDataError("histogram metrics require data with spread")
    if not isinstance(n_bins, (int, np.integer)) or n_bins < 2:
        raise DomainError(f"n_bins must be an integer >= 2, got {n_bins!r}")
    heights, edges = np.histogram(values, bins=int(n_bins), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    model = np.asarray(dist.pdf(d, centers))
    sse = float(np.sum((heights - model) ** 2))
    rmse = float(np.sqrt(sse / n_bins))
    denom = float(np.sum((heights - heights.mean()) ** 2))
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
