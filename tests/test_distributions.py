import math

import numpy as np
import pytest
from scipy.integrate import quad

from belldist import (
    EULER_MASCHERONI,
    DegenerateDataError,
    DistSpec,
    DomainError,
    Family,
    SampleBatch,
    cdf,
    fit_mle,
    log_likelihood,
    pdf,
    quantile,
    sample,
)
from belldist.distributions import uniform_open
from conftest import ks_against

PARAM_GRID = [
    (Family.GUMBEL, 0.0, 1.0),
    (Family.GUMBEL, -1.5, 2.5),
    (Family.LOGISTIC, 0.0, 1.0),
    (Family.LOGISTIC, 3.0, 0.4),
    (Family.NORMAL, 0.0, 1.0),
    (Family.NORMAL, -2.0, 3.0),
]


def test_distspec_rejects_bad_scale():
    with pytest.raises(DomainError):
        DistSpec(Family.GUMBEL, 0.0, 0.0)
    with pytest.raises(DomainError):
        DistSpec(Family.NORMAL, 0.0, -1.0)
    with pytest.raises(DomainError):
        DistSpec(Family.LOGISTIC, math.nan, 1.0)


def test_means():
    assert DistSpec(Family.GUMBEL, 2.0, 3.0).mean == pytest.approx(2.0 + 3.0 * EULER_MASCHERONI)
    assert DistSpec(Family.LOGISTIC, 2.0, 3.0).mean == 2.0
    assert DistSpec(Family.NORMAL, -1.0, 0.5).mean == -1.0


def test_pdf_anchor_values():
    assert pdf(DistSpec(Family.LOGISTIC, 0, 1), 0.0) == pytest.approx(0.25, abs=1e-15)
    assert pdf(DistSpec(Family.GUMBEL, 0, 1), 0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert pdf(DistSpec(Family.NORMAL, 0, 1), 0.0) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), abs=1e-15
    )


def test_cdf_anchor_values():
    assert cdf(DistSpec(Family.LOGISTIC, 1.7, 2.2), 1.7) == pytest.approx(0.5, abs=1e-15)
    assert cdf(DistSpec(Family.GUMBEL, 0, 1), 0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert cdf(DistSpec(Family.LOGISTIC, 0, 1), 1e9) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("family,loc,scale", PARAM_GRID)
def test_pdf_integrates_to_one(family, loc, scale):
    d = DistSpec(family, loc, scale)
    total, err = quad(lambda x: pdf(d, x), loc - 60 * scale, loc + 60 * scale, limit=300)
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("family,loc,scale", PARAM_GRID)
def test_pdf_matches_cdf_derivative(family, loc, scale):
    d = DistSpec(family, loc, scale)
    xs = loc + scale * np.linspace(-4.0, 6.0, 25)
    h = 1e-6 * scale
    numeric = (cdf(d, xs + h) - cdf(d, xs - h)) / (2.0 * h)
    assert np.max(np.abs(numeric - pdf(d, xs))) < 1e-6


def test_quantile_anchor_values():
    assert quantile(DistSpec(Family.LOGISTIC, 0, 1), 0.5) == pytest.approx(0.0, abs=1e-15)
    assert quantile(DistSpec(Family.GUMBEL, 0, 1), math.exp(-1.0)) == pytest.approx(0.0, abs=1e-14)
    # inverting the Logistic CDF analytically: loc + scale*log(p/(1-p))
    val = quantile(DistSpec(Family.LOGISTIC, 2, 3), 0.9)
    assert val == pytest.approx(2.0 + 3.0 * math.log(9.0), rel=1e-13)
    assert cdf(DistSpec(Family.LOGISTIC, 2, 3), val) == pytest.approx(0.9, rel=1e-12)


def test_quantile_domain():
    d = DistSpec(Family.NORMAL, 0, 1)
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(DomainError):
            quantile(d, bad)


@pytest.mark.parametrize("family,loc,scale", PARAM_GRID)
def test_quantile_cdf_roundtrip(family, loc, scale):
    d = DistSpec(family, loc, scale)
    ps = np.linspace(0.001, 0.999, 25)
    assert np.max(np.abs(cdf(d, quantile(d, ps)) / ps - 1.0)) < 1e-12
    xs = loc + scale * np.linspace(-3.0, 5.0, 25)
    assert np.max(np.abs(quantile(d, cdf(d, xs)) - xs)) < 1e-10


def test_sample_deterministic_and_distinct():
    d = DistSpec(Family.GUMBEL, 1.0, 2.0)
    a = sample(d, 1000, seed=42)
    b = sample(d, 1000, seed=42)
    c = sample(d, 1000, seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.seed == 42


def test_sample_size_domain():
    with pytest.raises(DomainError):
        sample(DistSpec(Family.NORMAL, 0, 1), 0, seed=1)


def test_uniform_open_negative_count_raises_domain_error():
    assert uniform_open(0, 0).size == 0
    with pytest.raises(DomainError):
        uniform_open(0, -5)


def test_sample_mean_clt_bounds():
    n = 100_000
    logi = sample(DistSpec(Family.LOGISTIC, 0, 1), n, seed=11)
    assert abs(np.mean(logi.values)) < 3.0 * (math.pi / math.sqrt(3.0)) / math.sqrt(n)
    gum = sample(DistSpec(Family.GUMBEL, 0, 1), n, seed=12)
    assert abs(np.mean(gum.values) - EULER_MASCHERONI) < 3.0 * (math.pi / math.sqrt(6.0)) / math.sqrt(n)


@pytest.mark.parametrize("family,loc,scale", PARAM_GRID)
def test_sample_empirical_cdf_ks(family, loc, scale):
    d = DistSpec(family, loc, scale)
    batch = sample(d, 100_000, seed=5)
    assert ks_against(batch.values, d) < 0.01


def test_fit_normal_closed_form():
    data = SampleBatch(np.array([1.0, 2.0, 3.0, 6.0]))
    fitted = fit_mle(Family.NORMAL, data)
    assert fitted.location == pytest.approx(3.0)
    assert fitted.scale == pytest.approx(float(np.std([1.0, 2.0, 3.0, 6.0])))


def test_fit_logistic_consistency():
    truth = DistSpec(Family.LOGISTIC, 3.0, 0.5)
    fitted = fit_mle(Family.LOGISTIC, sample(truth, 100_000, seed=21))
    assert abs(fitted.location - 3.0) < 0.02
    assert abs(fitted.scale - 0.5) < 0.02


def test_fit_gumbel_consistency():
    truth = DistSpec(Family.GUMBEL, -1.0, 2.0)
    fitted = fit_mle(Family.GUMBEL, sample(truth, 100_000, seed=22))
    assert abs(fitted.location + 1.0) < 0.05
    assert abs(fitted.scale - 2.0) < 0.05


def test_fit_degenerate_data():
    with pytest.raises(DegenerateDataError):
        fit_mle(Family.GUMBEL, SampleBatch(np.ones(10)))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("values", [
    [1e300, -1e300, 0.0],  # the variance overflows
    [1.7e308, 1.7e308, 1e308],  # the mean overflows
    [1e-320, 2e-320, 3e-320],  # the variance underflows to 0
], ids=["variance-overflow", "mean-overflow", "variance-underflow"])
def test_fit_spread_beyond_float64_raises_domain_error(family, values):
    with pytest.raises(DomainError):
        fit_mle(family, SampleBatch(np.array(values)))


@pytest.mark.parametrize("family", [Family.GUMBEL, Family.LOGISTIC])
def test_fit_beats_moment_initializer(family):
    batch = sample(DistSpec(family, 0.7, 1.3), 5000, seed=33)
    x = batch.values
    m, sd = float(np.mean(x)), float(np.std(x))
    if family is Family.GUMBEL:
        scale0 = sd * math.sqrt(6.0) / math.pi
        init = DistSpec(family, m - EULER_MASCHERONI * scale0, scale0)
    else:
        init = DistSpec(family, m, sd * math.sqrt(3.0) / math.pi)
    fitted = fit_mle(family, batch)
    assert log_likelihood(fitted, x) >= log_likelihood(init, x) - 1e-9


@pytest.mark.parametrize("family", list(Family))
def test_fit_scale_equivariance(family):
    base = sample(DistSpec(family, 0.3, 1.1), 20_000, seed=44)
    c, b = 3.7, -2.9
    fitted = fit_mle(family, base)
    shifted = fit_mle(family, SampleBatch(c * base.values + b))
    assert shifted.location == pytest.approx(c * fitted.location + b, rel=1e-7, abs=1e-7)
    assert shifted.scale == pytest.approx(c * fitted.scale, rel=1e-7)


def test_sample_batch_validation():
    with pytest.raises(DomainError):
        SampleBatch(np.array([]))
    with pytest.raises(DomainError):
        SampleBatch(np.array([1.0, math.inf]))
    with pytest.raises(DomainError):
        SampleBatch(np.array([[1.0, 2.0]]))
