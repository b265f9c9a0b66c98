import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

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
    # a value that is not a number raised a bare ValueError or TypeError
    with pytest.raises(DomainError, match="scale must be a real number"):
        DistSpec(Family.NORMAL, 0.0, "x")
    with pytest.raises(DomainError, match="scale must be a real number"):
        DistSpec(Family.NORMAL, 0.0, None)
    with pytest.raises(DomainError, match="location must be a real number"):
        DistSpec(Family.NORMAL, "x", 1.0)


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
    for bad in (0.0, 1.0, -0.3, 1.7, math.nan, [0.5, math.nan]):
        with pytest.raises(DomainError):
            quantile(d, bad)
    assert quantile(d, np.empty(0)).shape == (0,)


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
    with pytest.raises(DomainError, match="sample size must be an integer"):
        sample(DistSpec(Family.NORMAL, 0, 1), 2.5, seed=0)


def test_uniform_open_negative_count_raises_domain_error():
    assert uniform_open(0, 0).size == 0
    with pytest.raises(DomainError):
        uniform_open(0, -5)
    with pytest.raises(DomainError, match="number of uniforms must be an integer"):
        uniform_open(0, 2.5)
    # the Philox stream is a counter word: a non-negative integer too
    with pytest.raises(DomainError, match="stream must be an integer"):
        uniform_open(0, 3, stream=1.5)
    with pytest.raises(DomainError, match="stream must be >= 0"):
        uniform_open(0, 3, stream=-1)
    # the stream is one 64-bit counter word; 2**64 raised a bare OverflowError
    for stream in (1 << 64, 1 << 70):
        with pytest.raises(DomainError, match=r"stream must lie in \[0, 2\*\*64\)"):
            uniform_open(0, 3, stream=stream)


# SHA-256 over uniform_open(seed, n, stream) for the streams and (seed, n)
# pairs of test_uniform_open_streams_below_2_63_keep_their_draws, taken from
# the list-built Philox counter that the uint64 one replaced
LOW_STREAM_DIGEST = "4b7227da9fc94e6bf78b86d2cc3c4334d009a5201d5ea82460fd8c8e2255c28e"


def test_uniform_open_streams_below_2_63_keep_their_draws():
    h = hashlib.sha256()
    for stream in (0, 1, 5, 2**32 + 3, 2**62, 2**63 - 1):
        for seed, n in ((0, 9), (123, 40000)):  # 40000 points: two halves
            h.update(uniform_open(seed, n, stream).tobytes())
    assert h.hexdigest() == LOW_STREAM_DIGEST


@pytest.mark.filterwarnings("error")
def test_uniform_open_streams_from_2_63_are_their_own():
    # the list-built counter aliased every stream in [2**63, 2**64) and warned
    # at 2**64 - 1; each stream below 2**64 now draws its own values
    streams = [0, 2**63 - 1, 2**63, 2**63 + 5, 2**64 - 1, np.uint64(2**64 - 2)]
    draws = {uniform_open(0, 4, stream).tobytes() for stream in streams}
    assert len(draws) == len(streams)
    # the upper half of a long draw advances the low words, not the stream
    n = 2**15 + 8
    gen = np.random.Generator(np.random.Philox(
        key=9, counter=np.array([0, 0, 0, 2**64 - 1], dtype=np.uint64)))
    assert np.array_equal(uniform_open(9, n, 2**64 - 1), gen.random(n) + 0.5 / float(1 << 53))


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


# ---------------------------------------------------------------------------
# Two fixed halves for arrays of at least 2**15 points
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(n=st.integers(distributions._PARALLEL_MIN, 300_000), seed=st.integers(0, 2**32 - 1),
       decades=st.floats(0.0, 100.0))
def test_halves_split_where_numpy_sum_splits_property(n, seed, decades):
    # np.sum adds a[:h] and a[h:] at the top of its pairwise tree, so the two
    # halves' sums give the whole sum's bits; a numpy that splits elsewhere
    # fails here before it moves any fit
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) * 10.0 ** rng.uniform(-decades, decades, n)
    starts, total = distributions._halves(lambda start, part: (start, float(np.sum(part))), a)
    assert starts == n // 2 - (n // 2) % 8  # 0 for the lower half, h for the upper
    assert total == float(np.sum(a))


@pytest.mark.parametrize("stream", [0, 1, 2])
@pytest.mark.parametrize("n", [2**15 - 1, 2**15, 2**15 + 1, 100_001])
def test_uniform_open_halves_keep_single_draw_bits(n, stream):
    # the upper half's Philox counter is advanced to where one long draw is
    gen = np.random.Generator(np.random.Philox(key=2024, counter=[0, 0, 0, stream]))
    expected = gen.random(n) + 0.5 / float(1 << 53)
    assert np.array_equal(uniform_open(2024, n, stream), expected)


@pytest.mark.parametrize("n", [2**15 - 1, 100_001])
@pytest.mark.parametrize("family", list(Family))
def test_quantile_halves_keep_single_call_bits(family, n):
    from scipy.special import logit, ndtri

    d = DistSpec(family, -0.7, 1.9)
    p = uniform_open(5, n)
    expected = {
        Family.GUMBEL: d.location - d.scale * np.log(-np.log(p)),
        Family.LOGISTIC: d.location + d.scale * logit(p),
        Family.NORMAL: d.location + d.scale * ndtri(p),
    }[family]
    assert np.array_equal(quantile(d, p), expected)


def test_upper_half_runs_under_the_callers_errstate():
    # the one point that underflows lies in the upper half, computed on the
    # worker thread; the caller's np.errstate still applies there
    n = 40_000
    p = np.full(n, 0.5)
    p[n - 100] = 0.5 + 1e-10  # logit 4e-10 times scale 1e-300 underflows
    x = uniform_open(1, n)
    x[n - 100] = 1e4  # far from the rest: its Gumbel weight exp(-a (z - min z)) underflows
    batch = SampleBatch(x)
    quantile(DistSpec(Family.LOGISTIC, 0.0, 1e-300), p)
    fit_mle(Family.GUMBEL, batch)
    with np.errstate(under="raise"):
        with pytest.raises(FloatingPointError, match="underflow"):
            quantile(DistSpec(Family.LOGISTIC, 0.0, 1e-300), p)
        with pytest.raises(FloatingPointError, match="underflow"):
            fit_mle(Family.GUMBEL, batch)


def test_halves_from_many_threads_keep_their_bits():
    # four callers, more than the cores, share the one worker thread; each
    # gets the bits of its own serial call
    from belldist.order_stats import sampling_error

    def work(seed):
        batch = sample(DistSpec(Family.LOGISTIC, 0.3, 1.2), 40_000, seed=seed)
        return (batch.values.tobytes(), fit_mle(Family.LOGISTIC, batch),
                sampling_error(65_537 + 2 * seed).s_e)

    expected = [work(seed) for seed in range(4)]
    got = [None] * 4

    def run(seed):
        got[seed] = work(seed)

    threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


def test_worker_holds_no_array_after_its_half():
    # a finished job leaves nothing on the worker: the arrays of the last
    # call are freed with the caller's references, not held until the next
    # call (which showed as 2 MB more peak memory over 1e5-point fits)
    a = np.ones(distributions._PARALLEL_MIN)
    alive = weakref.ref(a)
    distributions._halves(lambda start, part: (float(part.sum()),), a)
    del a
    deadline = time.monotonic() + 10.0
    while alive() is not None and time.monotonic() < deadline:
        time.sleep(1e-3)
    assert alive() is None


def _fit_in_child(expected) -> None:
    fitted = fit_mle(Family.LOGISTIC, sample(DistSpec(Family.LOGISTIC, 0.3, 1.2), 100_000, seed=3))
    sys.exit(0 if (fitted.location, fitted.scale) == expected else 3)


def test_forked_child_starts_its_own_worker():
    # the parent's worker thread does not survive a fork; a child that
    # inherited its job queue would wait forever on its first upper half
    fitted = fit_mle(Family.LOGISTIC, sample(DistSpec(Family.LOGISTIC, 0.3, 1.2), 100_000, seed=3))
    assert distributions._JOBS is not None
    child = multiprocessing.get_context("fork").Process(
        target=_fit_in_child, args=((fitted.location, fitted.scale),))
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung
    assert child.exitcode == 0


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
    # Cauchy draws: the log-likelihood is concave in (1/scale,
    # location/scale), so the damped Newton ascent reaches its maximum from
    # the moment start, however heavy the tails
    x = np.tan(math.pi * (uniform_open(3, 10_000) - 0.5))
    ours = log_likelihood(fit_mle(Family.GUMBEL, SampleBatch(x)), x)
    loc, scale = gumbel_r.fit(x)
    theirs = log_likelihood(DistSpec(Family.GUMBEL, loc, scale), x)
    assert ours >= theirs - 1e-9 * abs(theirs)
    assert ours > -70_461.0


@pytest.mark.parametrize("n", [2000, 5000, 10_000, 100_000])
def test_fit_logistic_cauchy_reaches_scipy_loglik(n):
    # Cauchy draws: the log-likelihood is concave in (1/scale,
    # location/scale), so the damped Newton ascent in those coordinates
    # reaches scipy's maximum from the moment start
    x = np.tan(math.pi * (uniform_open(0, n, stream=1) - 0.5))
    ours = log_likelihood(fit_mle(Family.LOGISTIC, SampleBatch(x)), x)
    theirs = log_likelihood(DistSpec(Family.LOGISTIC, *logistic.fit(x)), x)
    assert ours >= theirs - 1e-12 * abs(theirs)
    if n == 5000:
        assert ours == pytest.approx(-24288.5041691, abs=1e-7)


def _scoring(monkeypatch, score):
    # wraps every fit's evaluate(x) -> (log-likelihood, step): score(ll)
    # replaces the log-likelihood, and each evaluation is counted
    real = distributions._newton_ascent
    calls = []

    def ascent(x, n, evaluate, name):
        def scored(p):
            calls.append(None)
            ll, step = evaluate(p)
            return score(ll, len(calls)), step
        return real(x, n, scored, name)

    monkeypatch.setattr(distributions, "_newton_ascent", ascent)
    return calls


def test_fit_logistic_line_search_failure_raises(monkeypatch):
    # every trial point scores -inf, so no halving keeps the log-likelihood
    calls = _scoring(monkeypatch, lambda ll, k: ll if k == 1 else -math.inf)
    batch = sample(DistSpec(Family.NORMAL, 0.3, 1.2), 1000, seed=1)
    with pytest.raises(ConvergenceError, match="line search"):
        fit_mle(Family.LOGISTIC, batch)
    assert len(calls) == 61


def test_fit_gumbel_line_search_failure_raises(monkeypatch):
    # every trial point scores -inf, so no halving keeps the profile
    # log-likelihood; the Gumbel fit runs the same line search as the Logistic
    calls = _scoring(monkeypatch, lambda ll, k: ll if k == 1 else -math.inf)
    batch = sample(DistSpec(Family.NORMAL, 0.3, 1.2), 1000, seed=1)
    with pytest.raises(ConvergenceError, match="Gumbel MLE line search"):
        fit_mle(Family.GUMBEL, batch)
    assert len(calls) == 61


def test_fit_logistic_stops_at_float64_resolution(monkeypatch):
    # Logistic fit to Normal data: the last Newton steps change the
    # log-likelihood by less than its rounding; they are taken, not halved
    # down to nothing (that took 23 evaluations)
    batch = sample(DistSpec(Family.NORMAL, 0.3, 1.2), 100_000, seed=1)
    calls = _scoring(monkeypatch, lambda ll, k: ll)
    fit_mle(Family.LOGISTIC, batch)
    assert len(calls) <= 6


def test_fit_bits_independent_of_blas_threads():
    # the Newton sums are einsum reductions, not BLAS dot products, whose
    # bits depend on the thread count from about 1e4 points
    code = (
        "from belldist import DistSpec, Family, fit_mle, sample\n"
        "for family in (Family.GUMBEL, Family.LOGISTIC):\n"
        "    f = fit_mle(family, sample(DistSpec(family, 0.3, 1.2), 100_000, seed=2))\n"
        "    print(f.location.hex(), f.scale.hex())\n"
    )
    src = str(Path(distributions.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert len(outs[0].split()) == 4


# SHA-256 over the (location, scale) bits of 288 Gumbel and Logistic fits:
# samples of each family and Cauchy data, on both sides of _PARALLEL_MIN,
# taken before the Newton passes returned their own steps.
FIT_BITS_SHA256 = "3586a477a1af07fab541f50cf45ee83871c9ac4e9ecb5d3cda29ee3340af6f68"


def test_fit_bits_pinned():
    digest = hashlib.sha256()
    for n in (16, 256, 1000, 2**15 - 1, 2**15, 100_000):
        for seed in range(6):
            batches = [sample(DistSpec(f, 0.3, 1.2), n, seed) for f in Family]
            batches.append(SampleBatch(np.tan(math.pi * (uniform_open(seed, n, stream=1) - 0.5))))
            for batch in batches:
                for family in (Family.GUMBEL, Family.LOGISTIC):
                    fitted = fit_mle(family, batch)
                    digest.update(np.array([fitted.location, fitted.scale]).tobytes())
    assert digest.hexdigest() == FIT_BITS_SHA256


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


def pinned_fits(sizes) -> np.ndarray:
    """(location, scale, KS) of every family's fit to every law's batch of every size."""
    rows = []
    for i, law in enumerate(PIN_LAWS):
        for n in sizes:
            batch = sample(law, n, seed=100 * i + n)
            for family in Family:
                fitted = fit_mle(family, batch)
                rows.append((fitted.location, fitted.scale, ks_statistic(batch, fitted)))
    return np.array(rows)


# (location, scale, KS) on the grids below from the Newton fits that summed
# their weighted products with np.sum and accepted a Logistic line-search
# trial only within 1e-12 of the current log-likelihood.  The fits that stop
# at float64's resolution must stay within 1e-8 relative of every value.
OLD_FIT_KS = np.array([
    (0.3917670869542112, 0.3218963851613473, 0.3466707029383269),
    (0.5827871888744431, 0.2502080193629726, 0.3239591145148014),
    (0.5827871888744431, 0.38617221765424486, 0.34134474606854304),
    (0.10066578995945574, 1.3399950039623716, 0.1481907992268961),
    (0.6364202413597089, 1.0557949647341174, 0.14275886150692169),
    (0.9599263753086845, 2.032583978163964, 0.20431088754458288),
    (0.36193281928159715, 1.6321157888165791, 0.04608845907804937),
    (1.160214449983287, 1.0842785008268152, 0.043482912380997746),
    (1.2707049441413212, 1.9379421948200903, 0.06613895415296411),
    (0.3990865270540819, 1.7044241301073515, 0.012156107097012536),
    (1.1838780015616759, 1.1767467295916358, 0.046146071481796364),
    (1.3790728161178, 2.1845089431551297, 0.0800200846975917),
    (0.4004803210967618, 1.699769209540844, 0.001811539991488531),
    (1.1867073150119234, 1.180601542628263, 0.0477861951815673),
    (1.3801297190501371, 2.1759836001750066, 0.07200931242890418),
    (-2.670151856794514, 0.4705480947370579, 0.3466707029383269),
    (-2.3909186961922595, 0.36575405076439815, 0.3239591145148014),
    (-2.3909186961922595, 0.564506498470021, 0.3413447460685429),
    (-2.49647117661043, 1.2036763550683622, 0.22488606422575186),
    (-1.8742078939590057, 0.508349269183617, 0.1430161676281868),
    (-1.9578526067649624, 0.9952106492934634, 0.17843417111592602),
    (-1.7098946160448623, 1.5178824755683162, 0.17214129843262183),
    (-1.158664492493568, 0.5804640052490216, 0.04127752154292763),
    (-1.1567760271596594, 1.0736749609651965, 0.04991865824360209),
    (-1.7813942650221104, 1.2301411004087552, 0.1017768147139495),
    (-1.223770540755695, 0.6063479248911551, 0.012878986864929942),
    (-1.2322674279752155, 1.0975084938878563, 0.02801430895162907),
    (-1.7458631551351143, 1.1889367303048184, 0.08760030456062151),
    (-1.200744848297993, 0.6010294413107974, 0.001588948571891291),
    (-1.2011903658537282, 1.0895874929844243, 0.023433393297015437),
    (4.389819087374965, 0.5907107583151271, 0.346670702938327),
    (4.74035930609216, 0.4591557273323963, 0.3239591145148014),
    (4.74035930609216, 0.7086630793211066, 0.3413447460685429),
    (0.7249134315320764, 3.535757754007459, 0.1916444893995593),
    (2.473374334155771, 1.831288202436228, 0.11011077796727381),
    (2.4348004840711783, 3.353018572348257, 0.13164892057198213),
    (0.9066618450452242, 2.9501820647206896, 0.08123423390372286),
    (2.4491145426411722, 1.7488882281655622, 0.04389102631562214),
    (2.4251032584327596, 3.0202319164871105, 0.03476748090706372),
    (1.0710374836511611, 2.981623597385882, 0.06816082622355224),
    (2.5736123038323613, 1.709707557005118, 0.01775448481634323),
    (2.5690108430544, 2.9927285672205173, 0.008886068040953432),
    (0.9811418973856212, 2.98982330696591, 0.059833926126172166),
    (2.4802198964766333, 1.7165161795440986, 0.01554095765796265),
    (2.481198956939543, 3.000264454854716, 0.001666002122669541),
])
# SHA-256 of the float64 bytes of (location, scale, KS) below, computed after
# fits of at least 2**15 points began to add the einsum sums of two halves
# (the rows below that size kept every bit); a change that keeps the fits
# must keep every bit.
FIT_KS_DIGEST = "64d63a59486f422cf56e573cd5934afdf2bb382bd034f5ca16922b66c6de4eda"


def test_fit_and_ks_bits_pinned():
    fits = pinned_fits((2, 17, 256, 5000, 100_000))
    np.testing.assert_allclose(fits, OLD_FIT_KS, rtol=1e-8, atol=0.0)
    assert hashlib.sha256(fits.tobytes()).hexdigest() == FIT_KS_DIGEST


# As above for batch sizes one past a 64-point block edge, below and above
# KS's 2**15-point direct evaluation; the block-bound KS must keep every bit.
OLD_FIT_KS_BLOCK = np.array([
    (0.44201729782353605, 1.6838289988322088, 0.03714055859262422),
    (1.1975487533331393, 1.2140189165854491, 0.07013031582974935),
    (1.4405592229827842, 2.258756972386852, 0.0983058468040705),
    (0.3961519219669617, 1.6635906171669599, 0.007963773862546389),
    (1.1689949580239374, 1.1594535885671076, 0.05307481970034204),
    (1.3568354304960946, 2.1337327283249765, 0.07143196619227721),
    (0.4064991372567369, 1.7042633024648817, 0.0043153077737798085),
    (1.1958134958518067, 1.1902134227280925, 0.050454498338629125),
    (1.392785178263713, 2.1967360940103724, 0.07172992802434991),
    (0.40250742161413666, 1.6909137627704576, 0.003205733558111268),
    (1.1846555003239037, 1.176992426659975, 0.048431245815645875),
    (1.378258939484999, 2.1651281722003124, 0.07374205737349038),
    (-1.8201640317563674, 1.160103178927908, 0.10953449158136874),
    (-1.2920290074624898, 0.5644359405038557, 0.02429569962241951),
    (-1.2959083304276484, 1.0485026032434763, 0.050492919544350645),
    (-1.730898805204604, 1.2454129215929983, 0.1082519374788985),
    (-1.2078214988484275, 0.5923159315427391, 0.011486695382705081),
    (-1.2011663165189028, 1.0786019446339172, 0.03310157747390552),
    (-1.7389884551362222, 1.1919739663735502, 0.08785340170237632),
    (-1.194359183328413, 0.6030433354451088, 0.0034343245694350433),
    (-1.193337212254097, 1.092315346208827, 0.022920978020575467),
    (-1.7514141400555356, 1.1912263507977483, 0.08818866083533217),
    (-1.2008301699110293, 0.6024867664537937, 0.0025807918104994165),
    (-1.203954343541128, 1.0921017799338661, 0.02297711435957156),
    (0.7330846686082604, 3.0132968623611047, 0.0869122391494142),
    (2.2384994630255624, 1.674509231470653, 0.029730657570809393),
    (2.221511391030668, 2.9523096078092013, 0.025951921121193156),
    (0.9533556744103291, 2.9791993508673786, 0.06146920463253358),
    (2.45764698837893, 1.7191620707785171, 0.023332378364917306),
    (2.4531464225958985, 2.9979574684182677, 0.009557525314959014),
    (1.0204215014537181, 2.970456186918876, 0.05896354349849586),
    (2.505493460486555, 1.7127028678753395, 0.01708096697618755),
    (2.512332001077287, 2.990048650723783, 0.004341874856265526),
    (1.003494348559756, 3.0004193341097034, 0.060893798450760206),
    (2.5034668428199978, 1.7166281041713476, 0.017152272054119955),
    (2.503944725089262, 3.0016145792853397, 0.0022041544340603014),
])
FIT_KS_BLOCK_DIGEST = "3204f9efdd88d5d71419cf029b368c137925d3bfadd1824c638358144ff9ea8c"


def test_fit_and_block_ks_bits_pinned():
    fits = pinned_fits((513, 4097, 32769, 65537))
    np.testing.assert_allclose(fits, OLD_FIT_KS_BLOCK, rtol=1e-8, atol=0.0)
    assert hashlib.sha256(fits.tobytes()).hexdigest() == FIT_KS_BLOCK_DIGEST


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
    # at most three n-sized buffers (one for Gumbel) allocated once per fit,
    # and a little slack for small objects
    buffers = 3 if family is Family.LOGISTIC else 1
    assert peak <= buffers * 8 * n + 65536


# ---------------------------------------------------------------------------
# The package's log-sum-exp kernel
# ---------------------------------------------------------------------------

@st.composite
def lse_arrays(draw, magnitude):
    """1-D or 2-D arrays of magnitude up to ``magnitude`` with tied row maxima and NaN rows."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    x = np.array(draw(st.lists(st.floats(-magnitude, magnitude), min_size=rows * cols,
                               max_size=rows * cols))).reshape(rows, cols)
    for i in draw(st.lists(st.integers(0, rows * cols - 1), max_size=4)):
        x.flat[i] = x[i // cols].max()
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        x[i, draw(st.integers(0, cols - 1))] = math.nan
    return x[0] if draw(st.booleans()) else x


# moderate entries over any beta, and entries up to 1e308 over a beta >= 1,
# so that x / beta stays finite: there a row without NaN has a finite result
@given(x_beta=st.one_of(st.tuples(lse_arrays(700.0), st.floats(1e-2, 1e2)),
                        st.tuples(lse_arrays(1e308), st.floats(1.0, 1e2))))
def test_logsumexp_bit_identical_to_scipy_property(x_beta):
    from scipy.special import logsumexp

    x, beta = x_beta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = distributions._logsumexp(x, beta)
    with np.errstate(over="ignore"):  # scipy warns where x - max overflows to -inf
        expected = logsumexp(x / beta, axis=-1)
    assert got.shape == np.shape(expected)
    assert np.array_equal(got, expected, equal_nan=True)


@pytest.mark.parametrize("x, beta", [
    ([1.0, 2.0], 1e-310),  # x / beta overflows
    ([1e308, -1e308], 0.5),  # to +inf and to -inf
    ([[0.0, 1.0], [math.inf, 0.0]], 1.0),  # an infinite entry
], ids=["tiny-beta", "huge-x", "inf"])
def test_logsumexp_overflow_raises_domain_error_without_warning(x, beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"overflows float64 at beta = {beta}"):
            distributions._logsumexp(np.array(x), beta)


def test_logsumexp_callers_never_import_scipy():
    # the Gumbel max rule, the location recursion and reward scaling run on
    # the numpy kernel, so none of them pays for scipy's import
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from belldist.gumbel_algebra import gumbel_max\n"
        "from belldist.mdp import make_chain, predict_gumbel\n"
        "from belldist.scaling import RewardSample, scaling_curve\n"
        "gumbel_max([[1.0, 2.0], [0.5, 3.0]], 0.5)\n"
        "predict_gumbel(make_chain(5), 4, 0.0, 1.0)\n"
        "scaling_curve(RewardSample(np.array([1.0, -1.0, -1.0]), 1.0), np.linspace(0.5, 3.0, 41))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(distributions.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"
