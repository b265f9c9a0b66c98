import math

import numpy as np
import pytest
from scipy.integrate import quad

from belldist import DistSpec, DomainError, Family, cdf
from belldist.distributions import uniform_open
from belldist.order_stats import (
    _harmonic_table,
    empirical_cdf_expectation,
    harmonic,
    order_stat_expectation,
    order_stat_table,
    sampling_error,
)

# Frozen from the closed form and confirmed against the segment-wise
# quadrature oracle below to ~1e-12.  Rounded to one significant digit these
# read 2e-2, 5e-3, 1e-3, 3e-4, 8e-5, 2e-5, 5e-6, 1e-6 (the n = 4 value sits
# at 4.94e-3, i.e. on the 4/5 rounding boundary).
SE_REFERENCE = {
    2: 1.8941421369995104e-02,
    4: 4.9392633285987e-03,
    8: 1.2566024351426e-03,
    16: 3.1690728890739e-04,
    32: 7.9634345213231e-05,
    64: 1.9976223651817e-05,
    128: 5.0062106443580e-06,
    256: 1.2538587323936e-06,
}


# Exact float64 bits of the unblocked kernel (one expression over all n - 1
# segments).  The kernels work in blocks of 2**14 elements: n - 1 = 2**14 and
# 2**14 + 1 put the last segment on and just past the first block edge.
SE_BITS = {
    2: 0.018941421369995104,
    3: 0.008668994221391585,
    17: 0.00028087591236803375,
    4096: 4.919541533741019e-09,
    16385: 3.078343944535184e-10,
    16386: 3.07796857806802e-10,
    2**20: 7.535182857733846e-14,
}


def harmonic_oracle(n: int) -> np.ndarray:
    """H_0..H_n from one extended-precision cumsum over 1/1..1/n."""
    table = np.zeros(n + 1, dtype=np.longdouble)
    table[1:] = np.cumsum(1.0 / np.arange(1, n + 1, dtype=np.longdouble))
    return table.astype(float)


def se_quadrature_oracle(n: int, a: float, b: float) -> float:
    d = DistSpec(Family.LOGISTIC, a, b)
    exps = [order_stat_expectation(n, i, a, b) for i in range(1, n + 1)]
    total = 0.0
    for i in range(1, n):
        c = i / n
        seg, _ = quad(lambda t: (cdf(d, t) - c) ** 2, exps[i - 1], exps[i], limit=200)
        total += seg
    return total / (exps[-1] - exps[0])


def mc_order_stats(n: int, a: float, b: float, replicates: int, seed: int) -> np.ndarray:
    u = uniform_open(seed, replicates * n).reshape(replicates, n)
    draws = a + b * (np.log(u) - np.log1p(-u))  # logistic quantile
    return np.sort(draws, axis=1)


def test_harmonic_values():
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0
    assert harmonic(4) == pytest.approx(25.0 / 12.0, rel=1e-15)
    with pytest.raises(DomainError):
        harmonic(-1)


@pytest.mark.parametrize("n", [1, 16384, 16385, 32769, 2**20 + 7])
def test_harmonic_table_bit_identical_to_one_shot_cumsum(n):
    table = _harmonic_table(n)
    assert table.dtype == np.float64
    assert np.array_equal(table, harmonic_oracle(n))
    assert not table.flags.writeable


def test_expectation_single_draw_is_location():
    assert order_stat_expectation(1, 1, 4.2, 0.3) == 4.2


def test_expectation_pair_mc():
    assert order_stat_expectation(2, 1, 0.0, 1.0) == pytest.approx(-1.0, rel=1e-14)
    assert order_stat_expectation(2, 2, 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    sorted_draws = mc_order_stats(2, 0.0, 1.0, 1_000_000, seed=17)
    for idx, expect in ((0, -1.0), (1, 1.0)):
        col = sorted_draws[:, idx]
        se = col.std(ddof=1) / math.sqrt(col.size)
        assert abs(col.mean() - expect) < 3.0 * se


def test_expectation_harmonic_arithmetic():
    # b*(H_8 - H_7) + a = 2 + 0.5/8
    val = order_stat_expectation(16, 9, 2.0, 0.5)
    assert val == pytest.approx(2.0625, rel=1e-13)
    sorted_draws = mc_order_stats(16, 2.0, 0.5, 200_000, seed=18)
    col = sorted_draws[:, 8]
    se = col.std(ddof=1) / math.sqrt(col.size)
    assert abs(col.mean() - val) < 3.0 * se


def test_expectation_domain():
    with pytest.raises(DomainError):
        order_stat_expectation(4, 0, 0.0, 1.0)
    with pytest.raises(DomainError):
        order_stat_expectation(4, 5, 0.0, 1.0)
    with pytest.raises(DomainError):
        order_stat_expectation(4, 2, 0.0, -1.0)


@pytest.mark.parametrize("n", [2, 3, 8, 33, 1024])
def test_antisymmetry_and_monotone(n):
    table = order_stat_table(n, a=1.25, b=0.75)
    e = table.expectations
    assert np.max(np.abs(e + e[::-1] - 2.0 * 1.25)) < 1e-12
    if n > 1:
        assert np.all(np.diff(e) > 0)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_closed_form_matches_quadrature_oracle(n):
    closed = sampling_error(n, 0.7, 1.3).s_e
    assert abs(closed - se_quadrature_oracle(n, 0.7, 1.3)) < 1e-10


@pytest.mark.parametrize("n,expected", sorted(SE_REFERENCE.items()))
def test_frozen_reference_values(n, expected):
    assert sampling_error(n).s_e == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("n,expected", sorted(SE_BITS.items()))
def test_sampling_error_bits_pinned(n, expected):
    assert sampling_error(n).s_e == expected


def test_monotone_decreasing_in_n():
    vals = [sampling_error(n).s_e for n in (2, 4, 8, 16, 32, 64, 128, 256)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_parameter_invariance():
    base = sampling_error(32, 0.0, 1.0).s_e
    for a, b in ((-3.0, 0.2), (10.0, 5.0)):
        assert abs(sampling_error(32, a, b).s_e - base) < 1e-12


def test_report_decomposition():
    rep = sampling_error(8)
    assert rep.variance == 0.0
    assert rep.s_e == rep.bias + rep.variance
    assert rep.s_e >= 0.0


def test_sampling_error_domain():
    with pytest.raises(DomainError):
        sampling_error(1)
    with pytest.raises(DomainError):
        sampling_error(4, 0.0, 0.0)


def test_empirical_cdf_expectation_steps():
    exps = order_stat_table(4).expectations
    assert empirical_cdf_expectation(4, 0.0, 1.0, exps[0] - 1.0) == 0.0
    assert empirical_cdf_expectation(4, 0.0, 1.0, exps[-1] + 1.0) == 1.0
    # antisymmetry puts exactly two of four expectations at or below 0
    assert empirical_cdf_expectation(4, 0.0, 1.0, 0.0) == 0.5


def test_step_function_approaches_true_cdf():
    # sup distance between the expected empirical CDF and the true CDF halves
    # as n doubles from 2 to 16
    d = DistSpec(Family.LOGISTIC, 0.0, 1.0)
    ts = np.linspace(-8.0, 8.0, 4001)
    sups = []
    for n in (2, 4, 8, 16):
        approx = empirical_cdf_expectation(n, 0.0, 1.0, ts)
        sups.append(float(np.max(np.abs(approx - cdf(d, ts)))))
    assert all(x > y for x, y in zip(sups, sups[1:]))
