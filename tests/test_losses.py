import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from belldist import DistSpec, DomainError, Family, log_likelihood, sample
from belldist.losses import (
    LN4,
    LossConfig,
    l_loss,
    l_loss_grad,
    mse_loss,
)


def test_mse_values():
    assert mse_loss(np.zeros(3)) == 0.0
    assert mse_loss(np.array([2.0])) == 2.0
    assert mse_loss(np.array([1.0, -1.0, 3.0])) == pytest.approx(11.0 / 6.0, rel=1e-15)


def test_lloss_at_zero_is_ln4():
    assert l_loss(np.array([0.0])) == pytest.approx(LN4, rel=1e-15)


def test_lloss_even_in_each_error():
    cfg = LossConfig(sigma=0.7)
    for c in (0.3, 1.7, 42.0):
        assert l_loss(np.array([c, -c]), cfg) == l_loss(np.array([-c, c]), cfg)
        assert l_loss(np.array([c]), cfg) == pytest.approx(l_loss(np.array([-c]), cfg), rel=1e-15)


def test_lloss_bits_match_out_of_place_expression():
    # l_loss forms its terms in one array; the old expression with a fresh
    # temporary per step is the oracle, compared exactly
    for sigma in (1.0, 0.3):
        errors = np.linspace(-40.0, 40.0, 100001)
        t = errors / sigma
        at = np.abs(t)
        expected = float(np.mean(at + 2.0 * np.log1p(np.exp(-at))))
        assert l_loss(errors, LossConfig(sigma=sigma)) == expected


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
def test_lloss_is_the_logistic_negative_log_likelihood(sigma):
    # the paper's identity: N * LLoss = -(log-likelihood of Logistic(0, sigma)
    # + N log sigma), the scale's normalisation being the constant it drops
    errors = sample(DistSpec(Family.LOGISTIC, 0.4, 1.3), 1001, seed=3).values
    n = errors.size
    nll = -(log_likelihood(DistSpec(Family.LOGISTIC, 0.0, sigma), errors) + n * math.log(sigma))
    assert n * l_loss(errors, LossConfig(sigma=sigma)) == pytest.approx(nll, rel=1e-13)


def test_lloss_large_argument_no_overflow():
    assert l_loss(np.array([1000.0])) == pytest.approx(1000.0, abs=1e-9)
    assert l_loss(np.array([-1000.0])) == pytest.approx(1000.0, abs=1e-9)
    assert math.isfinite(l_loss(np.array([1e12])))


def test_grad_zero_at_origin():
    assert l_loss_grad(np.array([0.0]))[0] == 0.0


def test_grad_bounded_asymptote():
    cfg = LossConfig(sigma=2.0)
    errs = np.array([1e9, -1e9, 0.5])
    grads = l_loss_grad(errs, cfg)
    bound = 1.0 / (errs.size * cfg.sigma)
    assert grads[0] == pytest.approx(bound, rel=1e-12)
    assert grads[1] == pytest.approx(-bound, rel=1e-12)
    assert np.all(np.abs(grads) <= bound + 1e-15)
    # mse gradient is unbounded by contrast
    assert abs(-1e6 / 1.0) > bound


@pytest.mark.parametrize("sigma", [0.5, 1.0, 10.0])
@pytest.mark.parametrize("eps", [-2.0, -0.5, 0.1, 3.0])
def test_grad_matches_finite_differences(sigma, eps):
    cfg = LossConfig(sigma=sigma)
    errs = np.array([eps, 0.7, -1.1])
    h = 1e-6
    for i in range(errs.size):
        up, dn = errs.copy(), errs.copy()
        up[i] += h
        dn[i] -= h
        numeric = (l_loss(up, cfg) - l_loss(dn, cfg)) / (2.0 * h)
        assert abs(numeric - l_loss_grad(errs, cfg)[i]) < 1e-7


def taylor_gap(t: float) -> float:
    """|l_loss - (log4 + mse_loss/2)| at one standardized error t, as criterion 9 forms it."""
    return abs(l_loss([t]) - (LN4 + mse_loss([t]) / 2.0))


def test_taylor_gap_values():
    assert taylor_gap(0.0) == 0.0
    # quartic remainder: next term after ln4 + t^2/4 is -t^4/96
    assert taylor_gap(0.1) <= (1.0 / 96.0 + 2e-3) * 0.1**4


def test_taylor_gap_quartic_ratio_sweep():
    ts = np.linspace(-0.5, 0.5, 401)
    ts = ts[ts != 0.0]
    ratios = [taylor_gap(float(t)) / t**4 for t in ts]
    assert max(ratios) <= 0.011


def test_batch_level_quartic_bound():
    cfg = LossConfig(sigma=1.3)
    rng = np.random.Generator(np.random.Philox(key=5))
    errs = cfg.sigma * (rng.random(512) - 0.5)  # |eps/sigma| <= 0.5
    gap = abs(l_loss(errs, cfg) - (LN4 + 0.5 * mse_loss(errs / cfg.sigma)))
    assert gap <= 0.011 * float(np.mean((errs / cfg.sigma) ** 4))


def test_convexity_second_differences():
    cfg = LossConfig(sigma=1.0)
    grid = np.linspace(-6.0, 6.0, 121)
    vals = np.array([l_loss(np.array([t]), cfg) for t in grid])
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    assert np.all(second > -1e-12)


def test_minimum_at_zero():
    cfg = LossConfig(sigma=1.0)
    for t in (-3.0, -0.2, 0.4, 2.5):
        assert l_loss(np.array([t]), cfg) > LN4


def test_loss_config_validation():
    with pytest.raises(DomainError):
        LossConfig(sigma=0.0)
    with pytest.raises(DomainError):
        l_loss(np.array([]))


@pytest.mark.parametrize("fn, errors, sigma", [
    ("l_loss", [1e308, 1e308], 1.0),  # the sum of the terms overflows
    ("mse_loss", [1e200, 1.0], None),  # a square overflows
    ("l_loss", [1.0, 2.0], 1e-310),  # err / sigma overflows
], ids=["l_loss-sum", "mse_loss-square", "l_loss-tiny-sigma"])
def test_loss_overflow_raises_domain_error_without_warning(fn, errors, sigma):
    args = (np.array(errors),) if sigma is None else (np.array(errors), LossConfig(sigma=sigma))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"{fn} overflows float64"):
            {"l_loss": l_loss, "mse_loss": mse_loss}[fn](*args)


def test_grad_saturates_without_warning_at_tiny_sigma():
    # err / (2 sigma) overflows, and tanh of it is exactly +-1
    cfg = LossConfig(sigma=1e-310)
    errs = np.tile([1.0, -1.0, 0.0, 1e-300], 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grads = l_loss_grad(errs, cfg)
        # a bound 1/(N sigma) beyond float64 is an overflow of the gradient
        with pytest.raises(DomainError, match="l_loss_grad overflows float64"):
            l_loss_grad(errs[:2], cfg)
    assert np.array_equal(grads, np.tile([1.0, -1.0, 0.0, 1.0], 16) / (errs.size * 1e-310))


@st.composite
def error_vectors(draw):
    """Finite errors: moderate ones mixed with any float64, extremes included."""
    moderate = st.floats(-1e3, 1e3)
    anything = st.floats(allow_nan=False, allow_infinity=False)
    return np.array(draw(st.lists(st.one_of(moderate, anything), min_size=1, max_size=20)))


@given(errors=error_vectors(), sigma=st.floats(1e-300, 1e300))
def test_losses_overflow_contract_property(errors, sigma):
    # every loss keeps the bits of its plain formula, or raises DomainError
    # where that formula overflows; no numpy warning either way
    cfg = LossConfig(sigma=sigma)
    with np.errstate(over="ignore"):
        at = np.abs(errors / sigma)
        plain = {
            l_loss: float(np.mean(at + 2.0 * np.log1p(np.exp(-at)))),
            mse_loss: float(np.mean(0.5 * errors * errors)),
        }
        grad = np.tanh(errors / (2.0 * sigma)) / (errors.size * sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, value in plain.items():
            args = (errors,) if fn is mse_loss else (errors, cfg)
            if value == math.inf:
                with pytest.raises(DomainError, match=f"{fn.__name__} overflows float64"):
                    fn(*args)
            else:
                assert fn(*args) == value
        got = l_loss_grad(errors, cfg)
    assert np.array_equal(got, grad)
    assert np.all(np.abs(got) <= 1.0 / (errors.size * sigma))
