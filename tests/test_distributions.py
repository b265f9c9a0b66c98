import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import gumbel_r, logistic

from belldist import (
    EULER_MASCHERONI,
    ConvergenceError,
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
from belldist import distributions
from belldist.distributions import uniform_open
from belldist.gof import ks_statistic
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


def test_sample_size_domain():
    with pytest.raises(DomainError):
        sample(DistSpec(Family.NORMAL, 0, 1), 0, seed=1)


def test_uniform_open_negative_count_raises_domain_error():
    assert uniform_open(0, 0).size == 0
    with pytest.raises(DomainError):
        uniform_open(0, -5)


@pytest.mark.parametrize("seed", [-1, -3, 1 << 128])
def test_uniform_open_seed_outside_philox_key_range_raises_domain_error(seed):
    with pytest.raises(DomainError, match="seed"):
        uniform_open(seed, 4)


@pytest.mark.parametrize("seed", [1.9, 1.0, np.float64(2.0), "1", None])
def test_uniform_open_non_integer_seed_raises_domain_error(seed):
    # a float seed used to be truncated: uniform_open(1.9, 3) gave uniform_open(1, 3)
    with pytest.raises(DomainError, match="seed must be an integer"):
        uniform_open(seed, 3)
    with pytest.raises(DomainError, match="seed must be an integer"):
        sample(DistSpec(Family.NORMAL, 0.0, 1.0), 3, seed=seed)


def test_uniform_open_accepts_numpy_integer_seeds():
    for seed in (np.int64(7), np.uint8(7), np.uint64(7)):
        assert np.array_equal(uniform_open(seed, 5), uniform_open(7, 5))


def uniform_open_oracle(seed: int, n: int, stream: int = 0) -> np.ndarray:
    """The integer formula: a 53-bit integer k per draw, mapped to (k + 1/2) / 2**53."""
    gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, stream]))
    return (gen.integers(0, 1 << 53, size=n).astype(float) + 0.5) / float(1 << 53)


@pytest.mark.parametrize("stream", [0, 1, 3])
@pytest.mark.parametrize("n", [0, 1, 17, 1001, 100001])
def test_uniform_open_matches_integer_formula(n, stream):
    for seed in (0, 1, 7, 49, (1 << 128) - 1):
        assert np.array_equal(uniform_open(seed, n, stream), uniform_open_oracle(seed, n, stream))


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
@pytest.mark.parametrize("values", [np.full(7, -2.5), np.array([0.0, -0.0])],
                         ids=["all-equal", "signed-zeros"])
def test_fit_degenerate_data_every_family(family, values):
    with pytest.raises(DegenerateDataError):
        fit_mle(family, SampleBatch(values))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("values", [
    [1e300, -1e300, 0.0],  # the variance overflows
    [1.7e308, 1.7e308, 1e308],  # the mean overflows
    [1e-320, 2e-320, 3e-320],  # the variance underflows to 0
], ids=["variance-overflow", "mean-overflow", "variance-underflow"])
def test_fit_spread_beyond_float64_raises_domain_error(family, values):
    with pytest.raises(DomainError):
        fit_mle(family, SampleBatch(np.array(values)))


def moment_start(family: Family, x: np.ndarray) -> DistSpec:
    """The moment-matched law the Gumbel and Logistic Newton fits start from."""
    m, sd = float(np.mean(x)), float(np.std(x))
    if family is Family.GUMBEL:
        scale0 = sd * math.sqrt(6.0) / math.pi
        return DistSpec(family, m - EULER_MASCHERONI * scale0, scale0)
    return DistSpec(family, m, sd * math.sqrt(3.0) / math.pi)


@pytest.mark.parametrize("family", [Family.GUMBEL, Family.LOGISTIC])
def test_fit_beats_moment_initializer(family):
    batch = sample(DistSpec(family, 0.7, 1.3), 5000, seed=33)
    x = batch.values
    fitted = fit_mle(family, batch)
    assert log_likelihood(fitted, x) >= log_likelihood(moment_start(family, x), x) - 1e-9


@st.composite
def fit_data(draw):
    """Finite batches from n = 2 up, with ties and occasional heavy-tailed entries."""
    body = draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40))
    ties = draw(st.lists(st.sampled_from(body), max_size=6))
    tails = draw(st.lists(st.floats(-1e12, 1e12), max_size=3))
    return np.array(draw(st.permutations(body + ties + tails)))


@given(x=fit_data(), family=st.sampled_from([Family.GUMBEL, Family.LOGISTIC]))
def test_fit_loglik_at_least_moment_start_property(x, family):
    if x.min() == x.max():
        with pytest.raises(DegenerateDataError):
            fit_mle(family, SampleBatch(x))
        return
    if not float(np.std(x)) > 0.0:  # a spread below float64's resolution
        with pytest.raises(DomainError):
            fit_mle(family, SampleBatch(x))
        return
    fitted = fit_mle(family, SampleBatch(x))
    start = log_likelihood(moment_start(family, x), x)
    assert log_likelihood(fitted, x) >= start - 1e-9 * (1.0 + abs(start))


@st.composite
def moderate_data(draw):
    """Finite batches of 2 to 3000 light-tailed draws, rounded to a grid so that
    some hold many ties; a batch with one distinct value is drawn again."""
    law = DistSpec(draw(st.sampled_from(list(Family))), draw(st.floats(-1e3, 1e3)),
                   draw(st.floats(1e-3, 1e3)))
    x = sample(law, draw(st.integers(2, 3000)), draw(st.integers(0, 2**32 - 1))).values
    grid = law.scale / draw(st.sampled_from([1.0, 4.0, 16.0, 1e6]))
    x = np.round(x / grid) * grid
    assume(x.min() < x.max())
    return x


@settings(max_examples=60, deadline=None)
@given(x=moderate_data(), family=st.sampled_from([Family.GUMBEL, Family.LOGISTIC]))
def test_fit_loglik_at_least_scipy_fit_property(x, family):
    # both densities are log-concave, so the MLE is unique and a correct fit
    # cannot end below scipy's
    loc, scale = (gumbel_r if family is Family.GUMBEL else logistic).fit(x)
    theirs = log_likelihood(DistSpec(family, loc, scale), x)
    assert log_likelihood(fit_mle(family, SampleBatch(x)), x) >= theirs - 1e-12 * abs(theirs)


def test_fit_gumbel_heavy_tails_reaches_scipy_loglik():
    # Cauchy draws: plain Newton from the moment start used to stop at the
    # wrong side of the profile-score root, at a log-likelihood of -7.27e6
    x = np.tan(math.pi * (uniform_open(3, 10_000) - 0.5))
    ours = log_likelihood(fit_mle(Family.GUMBEL, SampleBatch(x)), x)
    loc, scale = gumbel_r.fit(x)
    theirs = log_likelihood(DistSpec(Family.GUMBEL, loc, scale), x)
    assert ours >= theirs - 1e-9 * abs(theirs)
    assert ours > -70_461.0


def test_fit_logistic_line_search_failure_raises():
    # 5000 Cauchy draws: the Hessian is indefinite at the moment start and no
    # halving of the fallback step keeps the log-likelihood
    x = np.tan(math.pi * (uniform_open(0, 5000, stream=1) - 0.5))
    with pytest.raises(ConvergenceError, match="line search"):
        fit_mle(Family.LOGISTIC, SampleBatch(x))


@pytest.mark.parametrize("family", [Family.GUMBEL, Family.LOGISTIC])
def test_fit_iteration_limit_raises(family, monkeypatch):
    batch = sample(DistSpec(family, 0.7, 1.3), 5000, seed=33)
    monkeypatch.setattr(distributions, "_MAX_NEWTON", 1)
    with pytest.raises(ConvergenceError, match="did not converge in 1 "):
        fit_mle(family, batch)


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


def test_gumbel_left_tail_has_no_overflow_warning():
    d = DistSpec(Family.GUMBEL, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cdf(d, -800.0) == 0.0
        assert pdf(d, -800.0) == 0.0
        assert log_likelihood(d, np.array([-800.0, 0.0])) == -math.inf
        # (x - location) / scale itself overflows to -inf or +inf, in every family;
        # the Gumbel -sum(z) = +inf must not cancel its exp(-z) sum = +inf
        for family in Family:
            tiny = DistSpec(family, 0.0, 1e-10)
            for x, below in ((-1e300, True), (1e300, False)):
                assert cdf(tiny, x) == (0.0 if below else 1.0)
                assert pdf(tiny, x) == 0.0
                assert log_likelihood(tiny, np.array([x, 0.0])) == -math.inf
            assert np.array_equal(cdf(tiny, np.array([-1e300, 1e300])), [0.0, 1.0])
            assert cdf(DistSpec(family, -1e308, 1.0), 1e308) == 1.0


def test_sample_batch_sorted_is_a_cached_read_only_copy():
    batch = SampleBatch(np.array([3.0, -1.0, 2.0, -1.0, 0.5]))
    assert np.array_equal(batch.sorted, np.sort(batch.values))
    assert batch.sorted is batch.sorted
    assert not batch.sorted.flags.writeable
    assert np.array_equal(batch.values, [3.0, -1.0, 2.0, -1.0, 0.5])


PIN_LAWS = (
    DistSpec(Family.GUMBEL, 0.4, 1.7),
    DistSpec(Family.LOGISTIC, -1.2, 0.6),
    DistSpec(Family.NORMAL, 2.5, 3.0),
)
# SHA-256 of the float64 bytes of (location, scale, KS) below, computed before
# the fits reused their Newton residuals and KS read the batch's sorted copy;
# a change to either must keep every bit.
FIT_KS_DIGEST = "b6b5e9f749cc95b66a35d38356089fd2c5299f343bf9bfafbf72f416ed27822f"


def test_fit_and_ks_bits_pinned():
    h = hashlib.sha256()
    for i, law in enumerate(PIN_LAWS):
        for n in (2, 17, 256, 5000, 100_000):
            batch = sample(law, n, seed=100 * i + n)
            for family in Family:
                fitted = fit_mle(family, batch)
                ks = ks_statistic(batch, fitted)
                h.update(np.array([fitted.location, fitted.scale, ks]).tobytes())
    assert h.hexdigest() == FIT_KS_DIGEST


# SHA-256 as above for batch sizes one past a 64-point block edge, below and
# above KS's 2**15-point direct evaluation, computed while KS still evaluated
# the CDF at every point; the block-bound KS must keep every bit.
FIT_KS_BLOCK_DIGEST = "090e08d401d490694e306e784894810ed886b53ce98b29f97d34238e4feb85b1"


def test_fit_and_block_ks_bits_pinned():
    h = hashlib.sha256()
    for i, law in enumerate(PIN_LAWS):
        for n in (513, 4097, 32769, 65537):
            batch = sample(law, n, seed=100 * i + n)
            for family in Family:
                fitted = fit_mle(family, batch)
                ks = ks_statistic(batch, fitted)
                h.update(np.array([fitted.location, fitted.scale, ks]).tobytes())
    assert h.hexdigest() == FIT_KS_BLOCK_DIGEST


def test_batch_standardises_once_for_all_fits():
    batch = sample(DistSpec(Family.LOGISTIC, 0.5, 2.0), 1000, seed=5)
    fits = [fit_mle(family, batch) for family in Family]
    m, sd, z = batch._standardised
    assert batch._standardised[2] is z
    assert not z.flags.writeable
    assert (m, sd) == (float(np.mean(batch.values)), float(np.std(batch.values)))
    assert np.array_equal(z, (batch.values - m) / sd)
    # a batch that already standardised fits to the same bits as a fresh one
    assert fits == [fit_mle(family, SampleBatch(batch.values)) for family in Family]


@pytest.mark.parametrize("family", [Family.GUMBEL, Family.LOGISTIC])
def test_fit_peak_allocation_is_its_newton_buffers(family):
    n = 100_000
    batch = sample(DistSpec(family, 0.3, 1.2), n, seed=9)
    fit_mle(Family.NORMAL, batch)  # standardises the batch outside the traced call
    tracemalloc.start()
    try:
        fit_mle(family, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # at most four n-sized buffers (three for Gumbel) allocated once per fit,
    # and a little slack for small objects
    buffers = 4 if family is Family.LOGISTIC else 3
    assert peak <= buffers * 8 * n + 65536
