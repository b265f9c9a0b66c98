import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import logsumexp

from belldist import BelldistError, DomainError, PreconditionError
from belldist.distributions import uniform_open
from belldist.scaling import (
    RewardSample,
    _gprime,
    check_conditions,
    expected_error,
    find_phi_star,
    scaling_curve,
)
from conftest import magnitudes, signed_magnitudes

# Frozen via 30-digit evaluation of -log(e + 10/e).
NEG_LSE_REFERENCE = -1.8558410485107007


def sample_one_pos_ten_neg() -> RewardSample:
    return RewardSample(np.array([1.0] + [-1.0] * 10), beta=1.0)


def random_condition_samples(count: int, seed: int) -> list[RewardSample]:
    """Reward batches with a positive entry and G'(1) < 0."""
    u = uniform_open(seed, count * 16).reshape(count, 16)
    out = []
    for row in u:
        pos = 0.2 + row[0]  # one positive reward in (0.2, 1.2)
        negs = -0.5 - 2.0 * row[1:12]  # eleven negatives in (-2.5, -0.5)
        beta = 0.5 + row[12]
        cand = RewardSample(np.concatenate([[pos], negs, [0.0]]), beta=beta)
        if check_conditions(cand)[1]:
            out.append(cand)
    return out


def test_expected_error_zero_rewards():
    s = RewardSample(np.zeros(7), beta=2.0)
    for phi in (1.0, 2.5, 10.0):
        assert expected_error(s, phi) == pytest.approx(-2.0 * math.log(7.0), rel=1e-14)


def test_expected_error_single_reward_identity():
    s = RewardSample(np.array([3.7]), beta=1.4)
    assert expected_error(s, 1.0) == pytest.approx(-3.7, rel=1e-14)


def test_expected_error_logsumexp_value():
    s = sample_one_pos_ten_neg()
    assert expected_error(s, 1.0) == pytest.approx(NEG_LSE_REFERENCE, rel=1e-13)


@st.composite
def rewards_with_ties(draw):
    """Finite rewards up to 1e3 in magnitude, n >= 1, with extra copies of the maximum."""
    r = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
    ties = draw(st.integers(0, 3))
    return np.array(draw(st.permutations(r + [max(r)] * ties)))


@given(rewards=rewards_with_ties(), beta=st.floats(1e-2, 1e2), phi=st.floats(1e-2, 10.0))
def test_expected_error_bit_identical_to_scipy_logsumexp(rewards, beta, phi):
    # the package's numpy log-sum-exp keeps scaling free of scipy and gives scipy's bits
    sample = RewardSample(rewards, beta)
    expected = -sample.beta * float(logsumexp(phi * sample.rewards / sample.beta))
    assert expected_error(sample, phi) == expected


@given(rewards=rewards_with_ties(), beta=st.floats(1e-2, 1e2),
       grid=st.lists(st.floats(1e-2, 10.0), min_size=1, max_size=12, unique=True))
def test_scaling_curve_bit_identical_to_per_point_scipy(rewards, beta, grid):
    # the whole grid is one (grid x rewards) log-sum-exp; each row keeps the
    # bits of the one-point scipy evaluation
    sample = RewardSample(rewards, beta)
    grid = np.sort(grid)
    expected = [-sample.beta * float(logsumexp(p * sample.rewards / sample.beta)) for p in grid]
    assert scaling_curve(sample, grid).expectations.tolist() == expected


def test_scaling_curve_blocks_keep_the_bits(monkeypatch):
    # a long reward vector is taken a few grid points at a time, with the same bits
    from belldist import scaling

    s = RewardSample(-np.linspace(0.05, 2.0, 3000), beta=0.7)
    grid = np.linspace(0.5, 3.0, 41)
    whole = scaling_curve(s, grid).expectations
    monkeypatch.setattr(scaling, "_BLOCK", 3 * s.rewards.size + 5)
    assert np.array_equal(scaling_curve(s, grid).expectations, whole)


@pytest.mark.parametrize("grid", [[1.0, math.nan, 3.0], [1.0, 2.0, math.inf], [0.0, 1.0]],
                         ids=["nan", "inf", "zero"])
def test_scaling_curve_grid_must_be_finite_and_positive(grid):
    # a NaN passes an any(grid <= 0) test; only the per-point phi check caught it
    with pytest.raises(DomainError, match="positive"):
        scaling_curve(sample_one_pos_ten_neg(), grid)


def test_expected_error_domain():
    for phi in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            expected_error(sample_one_pos_ten_neg(), phi)


@pytest.mark.parametrize("beta", [math.inf, math.nan, 0.0, -1.0])
def test_reward_sample_requires_finite_positive_beta(beta):
    # beta = inf would give phi_star = inf and -inf errors on every row
    with pytest.raises(DomainError, match="beta"):
        RewardSample(np.array([1.0, -1.0]), beta=beta)


def test_expected_error_overflowing_exponent_raises_domain_error():
    # phi * r / beta = 1 / 1e-320 is beyond float64: no -inf, no numpy warning
    s = RewardSample(np.array([1.0, -1.0, -2.0]), beta=1e-320)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            expected_error(s, 1.0)


def test_check_conditions_single_positive():
    cond1, cond2, g1 = check_conditions(RewardSample(np.array([1.0]), beta=1.0))
    assert cond1 and not cond2
    assert g1 == pytest.approx(math.e, rel=1e-14)


def test_check_conditions_mixed():
    cond1, cond2, g1 = check_conditions(sample_one_pos_ten_neg())
    assert cond1 and cond2
    assert g1 == pytest.approx(math.e - 10.0 / math.e, rel=1e-13)


def test_check_conditions_no_positive():
    cond1, cond2, g1 = check_conditions(RewardSample(np.array([-1.0, -2.0]), beta=1.0))
    assert not cond1
    assert cond2 and g1 < 0


def test_phi_star_analytic_fixture_one():
    # e^phi = 10 e^-phi  =>  phi* = ln(10)/2
    phi = find_phi_star(sample_one_pos_ten_neg())
    assert phi == pytest.approx(math.log(10.0) / 2.0, abs=1e-10)


def test_phi_star_analytic_fixture_two():
    # 2 e^{2 phi} = 100 e^{-phi}  =>  phi* = ln(50)/3
    s = RewardSample(np.array([2.0] + [-1.0] * 100), beta=1.0)
    phi = find_phi_star(s)
    assert phi == pytest.approx(math.log(50.0) / 3.0, abs=1e-10)


def test_overflowing_gprime_keeps_its_sign():
    # exp(1000) overflows; the positive reward's term is +inf, so G'(1) > 0
    s = RewardSample(np.array([1000.0, -5.0, -5.0]), beta=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_conditions(s) == (True, False, math.inf)
        with pytest.raises(PreconditionError, match="G'"):
            find_phi_star(s)


def test_phi_star_preconditions_named():
    with pytest.raises(PreconditionError, match="positive reward"):
        find_phi_star(RewardSample(np.array([-1.0, -2.0]), beta=1.0))
    with pytest.raises(PreconditionError, match="G'"):
        find_phi_star(RewardSample(np.array([1.0, 1.0]), beta=1.0))


def count_gprime_calls(monkeypatch) -> list[int]:
    """Patch scaling._gprime to count its calls in the returned one-item list."""
    from belldist import scaling

    calls = [0]
    gprime = scaling._gprime

    def counted(sample, phi):
        calls[0] += 1
        return gprime(sample, phi)

    monkeypatch.setattr(scaling, "_gprime", counted)
    return calls


def test_phi_star_stops_where_float_spacing_exceeds_tolerance(monkeypatch):
    # phi* is about 3.47e6, where adjacent floats lie 4.7e-10 apart: no
    # bracket is narrower than 1e-10, so bisection stops once its midpoint
    # equals an end of the bracket instead of running out a step budget
    calls = count_gprime_calls(monkeypatch)
    phi = find_phi_star(RewardSample(np.array([1e-7, -1e-7, -1e-7]), beta=1.0))
    assert phi == float.fromhex("0x1.a7103f38ef102p+21")
    assert calls[0] < 100


def test_scaling_curve_evaluates_conditions_once(monkeypatch):
    # the curve's own check_conditions is the only G'(1); the search skips it
    s = sample_one_pos_ten_neg()
    phi_star = find_phi_star(s)
    calls = count_gprime_calls(monkeypatch)
    curve = scaling_curve(s, np.linspace(1.0, 3.0, 41))
    assert curve.phi_star == phi_star
    assert calls[0] <= 36


def test_interior_maximum_at_phi_star():
    s = sample_one_pos_ten_neg()
    phi = find_phi_star(s)
    at_star = expected_error(s, phi)
    assert at_star >= expected_error(s, 0.5 * phi + 0.5)
    assert at_star >= expected_error(s, 1.5 * phi)


def test_gprime_sign_flip_at_root():
    from belldist.scaling import _gprime

    for s in random_condition_samples(20, seed=91)[:10]:
        phi = find_phi_star(s)
        assert _gprime(s, phi - 1e-6) < 0 < _gprime(s, phi + 1e-6)


def test_scaling_never_worsens_inside_range():
    samples = random_condition_samples(250, seed=92)
    assert len(samples) >= 100
    for s in samples[:100]:
        phi_star = find_phi_star(s)
        base = expected_error(s, 1.0)
        for phi in np.linspace(1.0, phi_star, 9):
            assert expected_error(s, float(phi)) >= base - 1e-12


def test_zero_rewards_degenerate():
    s = RewardSample(np.zeros(5), beta=1.0)
    vals = {expected_error(s, p) for p in (1.0, 3.0, 17.0)}
    assert len(vals) == 1
    with pytest.raises(PreconditionError):
        find_phi_star(s)


def test_grid_argmax_near_phi_star():
    for s in random_condition_samples(250, seed=93)[:100]:
        phi_star = find_phi_star(s)
        grid = np.linspace(1.0, 3.0 * phi_star, 200)
        vals = np.array([expected_error(s, float(p)) for p in grid])
        cell = grid[1] - grid[0]
        assert abs(grid[int(np.argmax(vals))] - phi_star) <= cell + 1e-12


def test_scaling_curve_flags():
    s = sample_one_pos_ten_neg()
    curve = scaling_curve(s, np.linspace(0.5, 3.0, 26))
    assert curve.cond1 and curve.cond2
    assert curve.phi_star == pytest.approx(math.log(10.0) / 2.0, abs=1e-10)
    assert curve.below_regime[:5].all() and not curve.below_regime[-1]
    with pytest.raises(DomainError):
        scaling_curve(s, np.array([2.0, 1.0]))


def test_reward_sample_counts_and_validation():
    with pytest.raises(DomainError):
        RewardSample(np.array([]), beta=1.0)
    with pytest.raises(DomainError):
        RewardSample(np.array([1.0]), beta=0.0)


REWARDS = st.lists(signed_magnitudes(), min_size=1, max_size=12).map(np.array)


@given(rewards=REWARDS, beta=magnitudes(), phi=magnitudes())
@example(rewards=np.array([1e308, -1.7e308]), beta=1.0, phi=3.0)
@example(rewards=np.array([1.797e308, 1.797e308]), beta=1e306, phi=1.0)
def test_expected_error_is_finite_or_refuses_at_every_magnitude(rewards, beta, phi):
    try:
        error = expected_error(RewardSample(rewards, beta), phi)
    except BelldistError:
        return
    assert type(error) is float and math.isfinite(error)


@given(rewards=REWARDS, beta=magnitudes(),
       grid=st.lists(magnitudes(), min_size=1, max_size=8, unique=True))
@example(rewards=np.array([1e308, -1.7e308]), beta=1.0, grid=[1.0, 3.0])
def test_scaling_curve_is_finite_or_refuses_at_every_magnitude(rewards, beta, grid):
    try:
        curve = scaling_curve(RewardSample(rewards, beta), np.sort(grid))
    except BelldistError:
        return
    assert curve.expectations.shape == (len(grid),) and np.isfinite(curve.expectations).all()
    assert curve.cond1 == bool((rewards > 0).any())
    assert (curve.phi_star is not None) == (curve.cond1 and curve.cond2)
    if curve.phi_star is not None:
        assert 1.0 < curve.phi_star < math.inf


@given(rewards=REWARDS, beta=magnitudes())
@example(rewards=np.array([1e-9, -1e-8]), beta=1e300)  # phi* is about 2e308
def test_find_phi_star_is_finite_or_refuses_at_every_magnitude(rewards, beta):
    sample = RewardSample(rewards, beta)
    try:
        phi = find_phi_star(sample)
    except BelldistError:
        return
    assert 1.0 < phi < math.inf
    # G' is increasing, and phi is within the bisection's tolerance of its root
    assert _gprime(sample, phi * (1.0 - 1e-6) - 1e-6) < 0.0 <= _gprime(sample, phi * (1.0 + 1e-6) + 1e-6)
