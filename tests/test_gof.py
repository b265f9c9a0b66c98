import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from belldist import (
    BelldistError,
    DegenerateDataError,
    DistSpec,
    DomainError,
    Family,
    SampleBatch,
    cdf,
    fit_mle,
    quantile,
    sample,
)
from belldist.distributions import uniform_open
from belldist.gof import freedman_diaconis_bins, histogram_fit_metrics, ks_statistic, rank_families
from belldist.mdp import example1_row_errors
from conftest import laws, magnitudes, signed_magnitudes


def test_ks_evenly_spread_construction():
    d = DistSpec(Family.LOGISTIC, 0.0, 1.0)
    for n in (4, 10, 57):
        xs = quantile(d, (np.arange(1, n + 1) - 0.5) / n)
        assert ks_statistic(SampleBatch(xs), d) == pytest.approx(1.0 / (2 * n), abs=1e-12)


def test_ks_single_point():
    assert ks_statistic(SampleBatch(np.array([0.0])), DistSpec(Family.LOGISTIC, 0, 1)) == 0.5


def test_ks_self_sample_small():
    d = DistSpec(Family.LOGISTIC, 0.0, 1.0)
    assert ks_statistic(sample(d, 100_000, seed=2), d) < 0.01


def test_ks_affine_invariance():
    base = sample(DistSpec(Family.GUMBEL, 0.0, 1.0), 20_000, seed=4)
    k0 = ks_statistic(base, DistSpec(Family.GUMBEL, 0.0, 1.0))
    scaled = SampleBatch(2.5 * base.values - 3.0)
    k1 = ks_statistic(scaled, DistSpec(Family.GUMBEL, -3.0, 2.5))
    assert k0 == pytest.approx(k1, abs=1e-12)


def test_ks_ties():
    d = DistSpec(Family.LOGISTIC, 0.0, 1.0)
    batch = SampleBatch(np.array([0.0, 0.0, 0.0, 1.0]))
    # the ECDF jumps from 0 to 3/4 at the tied point 0, where F = 1/2, so the
    # sup is the gap just before the jump
    assert ks_statistic(batch, d) == 0.5


def test_ks_matches_absolute_value_form():
    # reference: the max of |i/n - F| and |(i-1)/n - F| over a fresh sort
    for seed, n in enumerate((1, 2, 3, 17, 256, 4999)):
        for family in Family:
            d = DistSpec(family, 0.3, 1.4)
            for values in (sample(d, n, seed=seed).values, np.round(sample(d, n, seed=seed).values)):
                x = np.sort(values)
                f = cdf(d, x)
                hi, lo = np.arange(1, n + 1) / n, np.arange(0, n) / n
                ref = float(max(np.max(np.abs(hi - f)), np.max(np.abs(lo - f))))
                assert ks_statistic(SampleBatch(values), d) == ref


def ks_oracle(batch: SampleBatch, d: DistSpec) -> float:
    """The full evaluation: F at every sorted point, the max of i/n - F and F - (i-1)/n."""
    x = np.sort(batch.values)
    n = x.size
    f = cdf(d, x)
    grid = np.arange(n + 1, dtype=float) / n
    return float(max(np.max(grid[1:] - f), np.max(f - grid[:-1])))


def block_ks_cases(n: int, seed: int):
    """Batches of size n paired with laws: a draw from each family against its
    own law, its own MLE fit (KS near 0) and a far law (KS near 1); the same
    draws rounded to one decimal (ties); and Cauchy draws (heavy tails)."""
    for family in Family:
        law = DistSpec(family, 0.3, 1.4)
        batch = sample(law, n, seed=seed)
        yield batch, law
        for fitted_family in Family:
            yield batch, fit_mle(fitted_family, batch)
        yield batch, DistSpec(family, 40.0, 0.5)
        yield batch, DistSpec(family, -40.0, 0.5)
        yield SampleBatch(np.round(batch.values, 1)), law
    cauchy = SampleBatch(np.tan(math.pi * (uniform_open(seed, n, stream=1) - 0.5)))
    for family in Family:
        yield cauchy, DistSpec(family, 0.0, 1.0)
    # the Logistic fit does not converge on large Cauchy sets, so only these
    for family in (Family.GUMBEL, Family.NORMAL):
        yield cauchy, fit_mle(family, cauchy)


@pytest.mark.parametrize("n", [2**15, 2**15 + 1, 2**15 + 64, 2**15 + 65, 2**16 + 1])
def test_ks_block_bound_matches_full_evaluation(n):
    # n <= 2**15 evaluates every point; above it the 64-point block bound must
    # give the same float as the full evaluation, at block edges and tails too
    for batch, d in block_ks_cases(n, seed=n):
        assert ks_statistic(batch, d) == ks_oracle(batch, d)


def test_ks_block_bound_extremes_of_the_statistic():
    batch = sample(DistSpec(Family.NORMAL, 0.0, 1.0), 2**15 + 1, seed=3)
    far = ks_statistic(batch, DistSpec(Family.NORMAL, 50.0, 1.0))
    near = ks_statistic(batch, fit_mle(Family.NORMAL, batch))
    assert far == ks_oracle(batch, DistSpec(Family.NORMAL, 50.0, 1.0)) == 1.0
    assert near == ks_oracle(batch, fit_mle(Family.NORMAL, batch)) < 0.02


@st.composite
def large_batches(draw):
    """Finite batches of 2**15 + 1 to 2**15 + 3000 points, so KS takes the
    block bound: a location-scale draw, optionally rounded to few digits (long
    tied runs), with a few extreme entries."""
    n = draw(st.integers(2**15 + 1, 2**15 + 3000))
    family = draw(st.sampled_from(list(Family)))
    law = DistSpec(family, draw(st.floats(-1e3, 1e3)), draw(st.floats(1e-3, 1e3)))
    values = sample(law, n, seed=draw(st.integers(0, 2**32))).values.copy()
    digits = draw(st.sampled_from([None, 0, 1, 2]))
    if digits is not None:
        values = np.round(values, digits)
    extremes = draw(st.lists(st.floats(-1e12, 1e12), max_size=5))
    values[:len(extremes)] = extremes
    return SampleBatch(values)


@settings(max_examples=60, deadline=None)
@given(batch=large_batches(), family=st.sampled_from(list(Family)),
       location=st.floats(-1e3, 1e3), scale=st.floats(1e-3, 1e3))
def test_ks_block_bound_matches_full_evaluation_property(batch, family, location, scale):
    d = DistSpec(family, location, scale)
    assert ks_statistic(batch, d) == ks_oracle(batch, d)


def test_ks_peak_allocation_below_one_array():
    n = 100_000
    batch = sample(DistSpec(Family.LOGISTIC, 0.0, 1.0), n, seed=13)
    fitted = fit_mle(Family.LOGISTIC, batch)
    batch.sorted  # the sorted copy is built once per batch, outside the traced call
    tracemalloc.start()
    try:
        ks_statistic(batch, fitted)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the block ends and bounds (2n/64 points) and one chunk of at most 64
    # candidate blocks at a time, so far less than one n-sized array
    assert peak < 8 * n + 65536


def test_ks_small_over_many_seeds():
    # DKW: P(KS > 0.01) <= 2 exp(-2 * 1e5 * 1e-4) ~ 4e-9, so all seeds pass
    for family in Family:
        d = DistSpec(family, 0.0, 1.0)
        failures = sum(
            ks_statistic(sample(d, 100_000, seed=s), d) >= 0.01 for s in range(100)
        )
        assert failures <= 1


def test_histogram_consistency_at_large_n():
    d = DistSpec(Family.LOGISTIC, 0.0, 1.0)
    batch = sample(d, 1_000_000, seed=6)
    sse, rmse, r2 = histogram_fit_metrics(batch, d, 50)
    assert r2 > 0.99
    assert rmse == pytest.approx(np.sqrt(sse / 50), rel=1e-12)


def test_histogram_uniform_vs_logistic_r2_gap():
    d = DistSpec(Family.LOGISTIC, 0.0, 1.0)
    n = 50_000
    u = np.linspace(-3.0, 3.0, n)  # uniform spread data
    logi = sample(d, n, seed=7)
    r2_uniform = histogram_fit_metrics(SampleBatch(u), d, 50)[2]
    r2_logistic = histogram_fit_metrics(logi, d, 50)[2]
    assert r2_logistic - r2_uniform > 0.2


def test_bin_sensitivity_ks_free():
    d = DistSpec(Family.GUMBEL, 0.0, 1.0)
    batch = sample(d, 20_000, seed=8)
    ks50 = ks_statistic(batch, d)
    sse50 = histogram_fit_metrics(batch, d, 50)[0]
    sse100 = histogram_fit_metrics(batch, d, 100)[0]
    assert ks50 == ks_statistic(batch, d)  # no bin argument at all
    assert sse50 != sse100


def test_histogram_degenerate_and_domain():
    d = DistSpec(Family.NORMAL, 0.0, 1.0)
    with pytest.raises(DegenerateDataError):
        histogram_fit_metrics(SampleBatch(np.ones(10)), d, 10)
    with pytest.raises(DomainError):
        histogram_fit_metrics(sample(d, 100, seed=1), d, 1)
    with pytest.raises(DomainError):  # rank_families resolves "fd"; the metrics take a count
        histogram_fit_metrics(sample(d, 100, seed=1), d, "fd")


def test_fd_bins_accepted():
    batch = sample(DistSpec(Family.NORMAL, 0.0, 1.0), 5000, seed=10)
    reports = rank_families(batch, "fd")
    assert [r.n_bins for r in reports] == [freedman_diaconis_bins(batch.values)] * 3
    assert all(np.isfinite([r.sse, r.rmse, r.r2]).all() for r in reports)


def test_fd_bins_at_zero_iqr_fall_back_to_50():
    # the quartiles agree, so the Freedman-Diaconis width would be 0
    assert freedman_diaconis_bins(np.array([0.0, 1.0, 1.0, 1.0, 1.0, 2.0])) == 50


@pytest.mark.parametrize("values", [
    np.concatenate([np.linspace(0.0, 1e-6, 1000), [1e3]]),
    np.concatenate([np.linspace(0.0, 1e-200, 1000), [1e200]]),
], ids=["9.99e9-bins", "overflow"])
def test_fd_bins_capped_at_one_per_value(values):
    # quartiles far inside the range: span / width was 9,993,328,891 bins on
    # the first batch and overflowed to a bare OverflowError on the second
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bins = freedman_diaconis_bins(values)
    assert 2 <= bins <= len(values)


@pytest.mark.parametrize("family", [Family.LOGISTIC, Family.GUMBEL])
def test_rank_families_self_consistency(family):
    batch = sample(DistSpec(family, 0.0, 1.0), 100_000, seed=11)
    reports = rank_families(batch)
    assert reports[0].family is family
    assert reports[0].ks <= reports[1].ks <= reports[2].ks


def test_rank_families_on_benchmark_bellman_rows():
    # mid-iteration Bellman-error rows: Logistic should rank first in a
    # majority of seeds
    wins = 0
    for seed in range(10):
        snap = example1_row_errors(2, seed=1000 + seed)
        reports = rank_families(SampleBatch(snap.bellman_err_flat))
        wins += reports[0].family is Family.LOGISTIC
    assert wins >= 7


def test_report_fields_complete():
    batch = sample(DistSpec(Family.NORMAL, 1.0, 2.0), 4000, seed=12)
    report = rank_families(batch)[0]
    d = report.to_dict()
    assert set(d) == {
        "family", "location", "scale", "ks", "sse", "rmse", "r2", "n_bins", "n_samples",
    }
    assert d["n_samples"] == 4000


@st.composite
def scaled_batches(draw):
    """Batches of 2 to 200 standard draws of a family, times a magnitude, plus
    a signed magnitude (or zero); a batch that leaves float64 is rejected."""
    law = DistSpec(draw(st.sampled_from(list(Family))), 0.0, 1.0)
    base = sample(law, draw(st.integers(2, 200)), seed=draw(st.integers(0, 2**32))).values
    with np.errstate(over="ignore"):
        values = base * draw(magnitudes()) + draw(signed_magnitudes())
    assume(np.isfinite(values).all())
    return SampleBatch(values)


@given(batch=scaled_batches(), law=laws(), n_bins=st.integers(2, 100))
@example(batch=SampleBatch(sample(DistSpec(Family.LOGISTIC, 0.0, 1.0), 2000, seed=0).values * 1e-156),
         law=DistSpec(Family.LOGISTIC, 0.0, 1e-156), n_bins=50)
def test_histogram_fit_metrics_are_finite_or_refuse(batch, law, n_bins):
    # every magnitude gives finite metrics or a BelldistError, never a warning
    try:
        sse, rmse, r2 = histogram_fit_metrics(batch, law, n_bins)
    except BelldistError:
        return
    assert 0.0 <= sse < math.inf and 0.0 <= rmse < math.inf
    assert r2 <= 1.0  # -inf when the heights have no spread of their own


@given(batch=scaled_batches())
@example(batch=SampleBatch([-1.5e308, 0.0, 1.5e308]))
def test_freedman_diaconis_bins_at_every_magnitude(batch):
    bins = freedman_diaconis_bins(batch.values)
    assert type(bins) is int and 2 <= bins <= max(50, len(batch))


@given(batch=scaled_batches(), law=laws())
def test_ks_direct_path_matches_full_evaluation_at_every_magnitude(batch, law):
    ks = ks_statistic(batch, law)
    assert ks == ks_oracle(batch, law)
    assert 0.0 <= ks <= 1.0
