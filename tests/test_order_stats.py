import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from belldist import DistSpec, DomainError, Family, cdf, order_stats
from belldist.distributions import uniform_open
from belldist.order_stats import (
    _harmonic_table,
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


# Exact float64 bits of the unblocked kernel (one expression over the
# (n - 1) // 2 segments of the lower half, plus the closed-form middle segment
# for even n).  The kernel works in blocks of 2**14 segments: n = 32767 and
# 32768 leave the lower half one segment short of a full block, n = 32769
# fills it exactly, and n = 32771 puts the last segment just past its edge.
# From 2**15 segments on, two threads fill the two halves of the segments:
# n = 65535 stays one segment below that, n = 65537 and 65539 split.  The
# entries at 65535..65539 were computed before the split, on one thread.
SE_BITS = {
    2: 0.01894142136999513,
    3: 0.008668994221391538,
    17: 0.00028087591236801744,
    4096: 4.919541569037406e-09,
    16385: 3.0783442753240003e-10,
    16386: 3.0779686877394507e-10,
    32767: 7.701326832459374e-11,
    32768: 7.700857124957145e-11,
    32769: 7.700387125362555e-11,
    32771: 7.699447585056476e-11,
    65535: 1.9261666622291214e-11,
    65537: 1.9260491405342197e-11,
    65539: 1.9259316289975404e-11,
    2**20: 7.534459936161077e-14,
}

# The segment formula of ``sampling_error`` evaluated at 40 significant
# digits, summed over all n - 1 segments without the mirror fold:
#
#     import mpmath as mp
#     mp.mp.dps = 40
#
#     def s_e(n):
#         h = [mp.mpf(0)]  # H_0..H_{n-1}
#         for k in range(1, n):
#             h.append(h[-1] + mp.mpf(1) / k)
#         e = [h[i - 1] - h[n - i] for i in range(1, n + 1)]  # E_1..E_n
#         soft = [mp.log1p(mp.exp(t)) for t in e]  # int F
#         cdf = [1 / (1 + mp.exp(-t)) for t in e]
#         total = mp.mpf(0)
#         for i in range(1, n):
#             c = mp.mpf(i) / n
#             total += ((1 - 2 * c) * (soft[i] - soft[i - 1]) - (cdf[i] - cdf[i - 1])
#                       + c * c * (e[i] - e[i - 1]))
#         return total / (e[-1] - e[0])
#
# It takes minutes at n = 2**20, so the values are stored, each with the
# relative tolerance the float64 kernel meets.
SE_MPMATH = {
    4096: (4.9195415650687458e-9, 1e-7),
    32768: (7.7008569717325436e-11, 1e-7),
    32769: (7.7003871375592232e-11, 1e-7),
    2**20: (7.5344702512709585e-14, 1e-5),
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
    assert _harmonic_table(0)[0] == 0.0
    assert _harmonic_table(1)[1] == 1.0
    assert _harmonic_table(4)[4] == pytest.approx(25.0 / 12.0, rel=1e-15)


@pytest.mark.parametrize("n", [1, 16384, 16385, 32769, 2**20 + 7])
def test_harmonic_table_bit_identical_to_one_shot_cumsum(n):
    table = _harmonic_table(n)
    assert table.dtype == np.float64
    assert np.array_equal(table, harmonic_oracle(n))
    assert not table.flags.writeable


def test_harmonic_keeps_one_table(monkeypatch):
    # ten distinct n near 2**20 keep one 8 MB table for the largest, not one
    # table per n; start from an empty table so the build is traced
    empty = np.zeros(1)
    empty.setflags(write=False)
    monkeypatch.setattr(order_stats, "_HARMONIC", (empty, np.zeros(1, dtype=np.longdouble)))
    tracemalloc.start()
    try:
        for k in range(10):
            _harmonic_table(2**20 + k)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 9_000_000
    assert _harmonic_table(2**20 + 9)[-1] == harmonic_oracle(2**20 + 9)[-1]


def test_sampling_error_allocates_block_buffers_beyond_its_segments():
    n = 2**20
    _harmonic_table(n)  # the kept table is built outside the traced call
    tracemalloc.start()
    try:
        sampling_error(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (n - 1) // 2 segment integrals, six buffers of at most 2**14 + 1
    # floats allocated once per call, and a little slack for small objects
    assert peak - 8 * ((n - 1) // 2) <= 6 * 8 * (order_stats._BLOCK + 1) + 65536


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


def test_expectation_is_table_entry_and_scale_is_checked():
    for n, indices in ((1, [1]), (2, [1, 2]), (17, range(1, 18)), (16385, [1, 8193, 16385])):
        table = order_stat_table(n, 0.37, 2.1).expectations
        assert [order_stat_expectation(n, i, 0.37, 2.1) for i in indices] == [
            table[i - 1] for i in indices
        ]
    for b in (0.0, -1.0):
        with pytest.raises(DomainError):
            order_stat_expectation(4, 2, 0.0, b)
        with pytest.raises(DomainError):
            order_stat_table(4, 0.0, b)


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
    # abs=0: pytest's default abs=1e-12 would dominate rel=1e-10 at these sizes
    assert sampling_error(n).s_e == pytest.approx(expected, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("n", sorted(SE_BITS))
def test_sampling_error_bits_pinned(n):
    assert sampling_error(n).s_e == SE_BITS[n]


@pytest.mark.parametrize("n", sorted(SE_MPMATH))
def test_sampling_error_matches_mpmath(n):
    expected, rtol = SE_MPMATH[n]
    assert abs(sampling_error(n).s_e / expected - 1.0) < rtol


def test_sampling_error_continuous_in_n():
    # the true relative step from 2**20 to 2**20 + 1 is about -1.9e-6
    assert abs(sampling_error(2**20 + 1).s_e / sampling_error(2**20).s_e - 1.0) < 1e-5


@pytest.mark.parametrize("n", [2, 3, 16385, 16386, 32768, 32769, 32770])
def test_sampling_error_evaluates_only_the_lower_half(monkeypatch, n):
    seen = []
    point_terms = order_stats._point_terms

    def recording(h, *buffers):
        seen.append(h.copy())
        point_terms(h, *buffers)

    monkeypatch.setattr(order_stats, "_point_terms", recording)
    sampling_error(n)
    points = np.concatenate(seen) if seen else np.empty(0)
    assert np.all(points <= 0.0)
    # grid points 0..(n - 1) // 2, each block repeating its left neighbour's last
    assert points.size == (n - 1) // 2 + len(seen)


def test_monotone_decreasing_in_n():
    vals = [sampling_error(n).s_e for n in (2, 4, 8, 16, 32, 64, 128, 256)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_parameter_invariance():
    base = sampling_error(32, 0.0, 1.0).s_e
    for a, b in ((-3.0, 0.2), (10.0, 5.0)):
        assert abs(sampling_error(32, a, b).s_e - base) < 1e-12


def test_report_decomposition():
    # the report carries s_e alone: with a deterministic expected empirical
    # CDF the error is all bias, a mean square
    rep = sampling_error(8)
    assert [f.name for f in dataclasses.fields(rep)] == ["n", "s_e"]
    assert rep.s_e >= 0.0


def test_sampling_error_domain():
    with pytest.raises(DomainError):
        sampling_error(1)
    with pytest.raises(DomainError):
        sampling_error(4, 0.0, 0.0)


@pytest.mark.parametrize("call", [
    lambda: sampling_error(3.0),
    lambda: order_stat_table(3.5),
    lambda: order_stat_expectation(4.0, 2, 0.0, 1.0),
    lambda: order_stat_expectation(4, 2.0, 0.0, 1.0),
], ids=["sampling_error-n", "order_stat_table-n", "order_stat_expectation-n",
        "order_stat_expectation-i"])
def test_non_integer_size_or_index_is_domain_error(call):
    with pytest.raises(DomainError, match="must be an integer"):
        call()


def test_numpy_integer_size_and_index_accepted():
    assert sampling_error(np.int64(16)).s_e == sampling_error(16).s_e
    assert order_stat_expectation(np.int32(4), np.int64(2), 0.0, 1.0) == \
        order_stat_expectation(4, 2, 0.0, 1.0)


@pytest.mark.parametrize("a, b", [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf),
                                  (0.0, math.nan), (0.0, -1.0)])
def test_sampling_error_validates_location_and_scale(a, b):
    # (a, b) cancel from the value, but the same DistSpec rule as
    # order_stat_table decides which pairs are accepted
    with pytest.raises(DomainError):
        sampling_error(2, a, b)
    with pytest.raises(DomainError):
        order_stat_table(2, a, b)
