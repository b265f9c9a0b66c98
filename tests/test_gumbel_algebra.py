import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from belldist import DistSpec, DomainError, EULER_MASCHERONI, Family, ScaleMismatchError, sample
from belldist.gumbel_algebra import (
    EXP_MOMENT_CONST,
    KlBranch,
    gumbel_difference,
    gumbel_exp_moment_bounds,
    gumbel_max,
    gumbel_shift_scale,
    kl_bound,
    kl_numeric,
)
from conftest import ks_against

# every finite float, subnormals and +-DBL_MAX included; a discount in (0, 1)
# and a scale > 0 from the same range
FINITE = st.floats(allow_nan=False, allow_infinity=False)
GAMMAS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
SCALES = st.floats(0.0, exclude_min=True, allow_infinity=False)

# Frozen via 40-digit mpmath evaluation of 20/e^2 + 10*exp(-sqrt(e)) + 1/2 - 1/(2e).
EXP_MOMENT_CONST_REFERENCE = 4.945722399626181958


def kl_quadrature(a_star: float, g: float) -> float:
    # Independent oracle: integrate the log density ratio of
    # Gumbel(g*a*, g) to Gumbel(a*, 1) against the first law.  After
    # u = (x - g*a*)/g the weight is standard Gumbel, and u in [-15, 40]
    # holds all but 1e-16 of its mass.
    def integrand(u):
        weight = math.exp(-(u + math.exp(-u)))
        if weight == 0.0:
            return 0.0
        log_ratio = (
            -math.log(g)
            - (1.0 - g) * (u + a_star)
            - math.exp(-u)
            + math.exp((1.0 - g) * a_star - g * u)
        )
        return weight * log_ratio

    return quad(integrand, -15.0, 40.0, points=[0.0], epsabs=1e-13, epsrel=1e-12)[0]


def test_shift_scale_identity_and_shift():
    d = DistSpec(Family.GUMBEL, 0, 1)
    assert gumbel_shift_scale(d, 0.0, 1.0) == d
    shifted = gumbel_shift_scale(DistSpec(Family.GUMBEL, 2, 3), 5.0, 1.0)
    assert shifted == DistSpec(Family.GUMBEL, 7, 3)


def test_shift_scale_domain():
    d = DistSpec(Family.GUMBEL, 0, 1)
    with pytest.raises(DomainError):
        gumbel_shift_scale(d, 0.0, 0.0)
    with pytest.raises(DomainError):
        gumbel_shift_scale(DistSpec(Family.NORMAL, 0, 1), 0.0, 1.0)


def test_shift_scale_sampling_oracle():
    base = DistSpec(Family.GUMBEL, 1, 2)
    law = gumbel_shift_scale(base, 0.0, 0.99)
    assert law == DistSpec(Family.GUMBEL, 0.99, 1.98)
    draws = 0.99 * sample(base, 100_000, seed=7).values
    assert ks_against(draws, law) < 0.01


def test_gumbel_max_single_and_pair():
    assert gumbel_max([3.25], 0.5) == DistSpec(Family.GUMBEL, 3.25, 0.5)
    law = gumbel_max([0.0, 0.0], 1.0)
    assert law.location == pytest.approx(math.log(2.0), rel=1e-15)
    assert law.scale == 1.0


def test_gumbel_max_three_locations():
    law = gumbel_max([1.0, 2.0, 3.0], 0.5)
    assert law.location == pytest.approx(0.5 * math.log(math.e**2 + math.e**4 + math.e**6), rel=1e-14)
    draws = np.maximum.reduce(
        [sample(DistSpec(Family.GUMBEL, c, 0.5), 100_000, seed=100 + i).values
         for i, c in enumerate((1.0, 2.0, 3.0))]
    )
    assert ks_against(draws, law) < 0.01


def test_gumbel_max_overflow_safe():
    # locations like r/beta with tiny beta: plain exp would overflow
    law = gumbel_max([5000.0, 4000.0], 0.001)
    assert math.isfinite(law.location)
    assert law.location == pytest.approx(5000.0, rel=1e-9)


def test_gumbel_max_domain():
    with pytest.raises(DomainError):
        gumbel_max([], 1.0)
    for beta in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            gumbel_max([0.0], beta)


@pytest.mark.parametrize("locations, beta", [([1.0, 2.0], 1e-310), ([1e308, -1e308], 0.5)],
                         ids=["tiny-beta", "huge-locations"])
def test_gumbel_max_overflowing_ratio_raises_without_warning(locations, beta):
    # locations / beta beyond float64 used to warn before the DistSpec check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            gumbel_max(locations, beta)


@pytest.mark.parametrize("locations", [
    np.array(2.5),
    np.arange(12.0).reshape(3, 4) ** 1.5,
    np.asfortranarray(np.arange(12.0).reshape(3, 4) ** 1.5),
    (np.arange(30.0).reshape(5, 6) ** 1.5)[::2, ::-1],
], ids=["0-D", "2-D", "2-D-fortran", "2-D-strided"])
def test_gumbel_max_keeps_scipy_bits_on_any_shape(locations):
    # the log-sum-exp runs over every location, as scipy's axis=None did
    from scipy.special import logsumexp

    for beta in (0.3, 1.0, 7.0):
        expected = beta * float(logsumexp(locations / beta))
        assert gumbel_max(locations, beta).location == expected


def test_gumbel_difference_laws():
    assert gumbel_difference(
        DistSpec(Family.GUMBEL, 0, 1), DistSpec(Family.GUMBEL, 0, 1)
    ) == DistSpec(Family.LOGISTIC, 0, 1)
    assert gumbel_difference(
        DistSpec(Family.GUMBEL, 5, 2), DistSpec(Family.GUMBEL, 3, 2)
    ) == DistSpec(Family.LOGISTIC, 2, 2)


def test_gumbel_difference_scale_mismatch():
    with pytest.raises(ScaleMismatchError):
        gumbel_difference(DistSpec(Family.GUMBEL, 0, 1), DistSpec(Family.GUMBEL, 0, 1.001))
    # round-off sized mismatch passes
    gumbel_difference(DistSpec(Family.GUMBEL, 0, 1), DistSpec(Family.GUMBEL, 0, 1 + 1e-13))


def test_gumbel_difference_sampling_oracle():
    x = sample(DistSpec(Family.GUMBEL, 1.0, 2.0), 100_000, seed=8).values
    y = sample(DistSpec(Family.GUMBEL, -0.5, 2.0), 100_000, seed=9).values
    law = gumbel_difference(DistSpec(Family.GUMBEL, 1.0, 2.0), DistSpec(Family.GUMBEL, -0.5, 2.0))
    assert law == DistSpec(Family.LOGISTIC, 1.5, 2.0)
    assert ks_against(x - y, law) < 0.01


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_difference_closure_grid(beta):
    x = sample(DistSpec(Family.GUMBEL, 0.3, beta), 100_000, seed=14).values
    y = sample(DistSpec(Family.GUMBEL, -0.8, beta), 100_000, seed=15).values
    assert ks_against(x - y, DistSpec(Family.LOGISTIC, 1.1, beta)) < 0.015


def test_exp_moment_constant_frozen():
    assert EXP_MOMENT_CONST == pytest.approx(EXP_MOMENT_CONST_REFERENCE, rel=1e-15)


def test_exp_moment_bounds_anchor():
    b_exp, b_xexp = gumbel_exp_moment_bounds(0.0)
    assert b_exp == pytest.approx(EXP_MOMENT_CONST_REFERENCE, rel=1e-15)
    assert b_xexp == pytest.approx(0.15, rel=1e-15)


@pytest.mark.parametrize("a", [-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 5.0])
def test_exp_moment_bounds_dominate_quadrature(a):
    # quadrature oracle for E[exp(-X)] and E[X exp(-X)] under Gumbel(a, 1)
    dens = lambda x: math.exp(-((x - a) + math.exp(-(x - a))))
    m_exp = quad(lambda x: math.exp(-x) * dens(x), a - 40, a + 60, limit=300)[0]
    m_xexp = quad(lambda x: x * math.exp(-x) * dens(x), a - 40, a + 60, limit=300)[0]
    b_exp, b_xexp = gumbel_exp_moment_bounds(a)
    assert m_exp < b_exp
    assert m_xexp < b_xexp
    # the exact moments are exp(-a) and (a + v - 1) exp(-a)
    assert m_exp == pytest.approx(math.exp(-a), rel=1e-9)
    assert m_xexp == pytest.approx((a + EULER_MASCHERONI - 1.0) * math.exp(-a), rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("a", [-800.0, -math.inf, math.nan])
def test_exp_moment_bounds_beyond_float64_raise_domain_error(a):
    # exp(800) overflowed in a bare OverflowError, and NaN returned (nan, nan)
    with pytest.raises(DomainError, match="not finite in float64"):
        gumbel_exp_moment_bounds(a)


def test_kl_numeric_near_one_vanishes():
    assert kl_numeric(0.0, 1.0, 1.0 - 1e-12) < 1e-9


@pytest.mark.parametrize("a_star", [-10.0, -1.0, 0.0, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("g", [0.9, 0.95, 0.99, 0.999])
def test_kl_numeric_matches_closed_form(a_star, g):
    assert kl_numeric(a_star, 1.0, g) == pytest.approx(kl_quadrature(a_star, g), rel=1e-8, abs=1e-9)


def test_kl_numeric_large_mismatch_matches_quadrature():
    # (1-g)*a* = 25, where the KL is about 6e10
    assert kl_numeric(50.0, 1.0, 0.5) == pytest.approx(kl_quadrature(50.0, 0.5), rel=1e-8, abs=1e-9)


def test_kl_numeric_scale_invariance():
    base = kl_numeric(2.0, 1.0, 0.97)
    for c in (0.1, 3.0, 250.0):
        assert abs(kl_numeric(2.0 * c, c, 0.97) - base) < 1e-9


def test_kl_numeric_domain():
    with pytest.raises(DomainError):
        kl_numeric(0.0, -1.0, 0.9)
    with pytest.raises(DomainError):
        kl_numeric(0.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="scale b must be finite and positive"):
        kl_numeric(1.0, math.inf, 0.9)
    for b in ("2", None):  # raised a bare TypeError
        with pytest.raises(DomainError, match="scale b must be finite and positive"):
            kl_numeric(1.0, b, 0.9)


@pytest.mark.parametrize("a, b", [(math.nan, 1.0), (math.inf, 1.0), (1e308, 1e-10), (1000.0, 1.0)])
def test_kl_numeric_nonfinite_raises_domain_error(a, b):
    # a non-finite a/b, or a KL beyond float64 ((1-g)*a/b = 900 at g = 0.1)
    with pytest.raises(DomainError):
        kl_numeric(a, b, 0.1)
    with pytest.raises(DomainError):
        kl_bound(a / b, 0.1)


def test_kl_bound_nonpositive_branch_formula():
    report = kl_bound(0.0, 0.99)
    expected = math.log(1.0 / 0.99) + 0.01 * (0.15 - EULER_MASCHERONI)
    assert report.bound == pytest.approx(expected, rel=1e-14)
    assert report.branch is KlBranch.A_NONPOSITIVE
    assert report.numeric_kl <= report.bound


def test_kl_bound_positive_branch_value():
    report = kl_bound(100.0, 0.99)
    assert report.branch is KlBranch.A_POSITIVE
    assert report.bound < 13.0
    assert report.numeric_kl <= report.bound


def test_kl_bound_vanishes_as_gamma_to_one():
    prev = math.inf
    for g in (0.9, 0.99, 0.999, 0.99999):
        b = kl_bound(7.0, g).bound
        assert 0.0 < b < prev
        prev = b
    assert kl_bound(7.0, 1.0 - 1e-9).bound < 1e-7


@pytest.mark.parametrize("a_star", [0.0, 1.0, 10.0, 100.0])
def test_kl_bound_monotone_decreasing_in_gamma(a_star):
    grid = np.linspace(0.9, 0.999, 12)
    vals = [kl_bound(a_star, g).bound for g in grid]
    assert all(x > y for x, y in zip(vals, vals[1:]))


@pytest.mark.parametrize("a_star, gamma", [
    (np.float32(2.0), 0.9), (np.int64(3), 0.95), (1.0, np.float32(0.9)), (True, 0.9),
])
def test_kl_bound_reports_the_floats_it_computed_with(a_star, gamma):
    # the report held the raw arguments: a numpy scalar made to_json raise a
    # bare TypeError, and True was written as "a_star": true
    report = kl_bound(a_star, gamma)
    assert type(report.a_star) is float and type(report.gamma) is float
    assert report == kl_bound(float(a_star), float(gamma))
    assert json.loads(report.to_json())["a_star"] == float(a_star)


def test_kl_bound_domain():
    with pytest.raises(DomainError):
        kl_bound(0.0, 0.0)
    with pytest.raises(DomainError):
        kl_bound(0.0, 1.0)


@pytest.mark.xfail(
    strict=True,
    reason="the closed-form bound is derived for (1-gamma)*a_star small and is "
    "provably exceeded by the exact KL at (100, 0.9) and (100, 0.95), where "
    "exp((1-gamma)*a_star) dominates",
)
def test_kl_bound_dominates_on_full_grid():
    for a_star in (-10.0, -1.0, 0.0, 1.0, 10.0, 100.0):
        for g in (0.9, 0.95, 0.99, 0.999):
            report = kl_bound(a_star, g)
            assert report.numeric_kl <= report.bound, (a_star, g)


def test_kl_bound_dominates_in_small_mismatch_regime():
    # wherever (1-gamma)*|a_star| <= 1 the bound genuinely dominates
    for a_star in (-10.0, -1.0, 0.0, 1.0, 10.0, 100.0):
        for g in (0.9, 0.95, 0.99, 0.999):
            if (1.0 - g) * abs(a_star) <= 1.0:
                report = kl_bound(a_star, g)
                assert report.numeric_kl <= report.bound, (a_star, g)


@given(a=FINITE, b=SCALES, gamma=GAMMAS)
def test_kl_numeric_is_a_float_at_least_zero_or_refuses(a, b, gamma):
    try:
        kl = kl_numeric(a, b, gamma)
    except DomainError:
        return
    assert type(kl) is float and 0.0 <= kl < math.inf


@given(a_star=FINITE, gamma=GAMMAS)
def test_kl_bound_reports_floats_or_refuses(a_star, gamma):
    try:
        report = kl_bound(a_star, gamma)
    except DomainError:
        return
    values = (report.a_star, report.gamma, report.bound, report.numeric_kl)
    assert all(type(v) is float for v in values)
    assert 0.0 <= report.numeric_kl < math.inf
    assert math.isfinite(report.bound)
    assert json.loads(report.to_json(), parse_constant=refuse)["branch"] == report.branch.value


def refuse(constant):
    raise AssertionError(f"{constant} is not JSON")


def test_kl_bound_is_finite_at_a_subnormal_gamma():
    # 1/gamma overflows there, but -log(gamma) is about 713.8
    report = kl_bound(1.0, 1e-310)
    assert report.bound == pytest.approx(-math.log(1e-310) + 1.0 * (EXP_MOMENT_CONST - 1.0)
                                         + 0.15 - EULER_MASCHERONI, rel=1e-15)
    assert report.dominated


@given(locations=st.lists(FINITE, min_size=1, max_size=8), beta=SCALES)
def test_gumbel_max_is_a_finite_law_or_refuses(locations, beta):
    try:
        law = gumbel_max(locations, beta)
    except DomainError:
        return
    assert law.family is Family.GUMBEL and law.scale == beta
    assert math.isfinite(law.location) and math.isfinite(law.scale)
