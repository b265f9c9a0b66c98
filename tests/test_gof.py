import numpy as np
import pytest

from belldist import (
    DegenerateDataError,
    DistSpec,
    DomainError,
    Family,
    SampleBatch,
    cdf,
    quantile,
    sample,
)
from belldist.gof import freedman_diaconis_bins, histogram_fit_metrics, ks_statistic, rank_families
from belldist.mdp import example1_row_errors


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
