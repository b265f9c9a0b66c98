"""The argument rules of ``belldist.errors`` at every public site that uses them.

Each bad input raises ``DomainError`` naming the argument, not a bare
``ValueError`` or ``TypeError`` from deep inside numpy or ``math``, and never
a NaN result.  Constructors keep read-only copies, never the caller's array.
"""

import dataclasses
import math

import numpy as np
import pytest

from belldist import (DistSpec, DomainError, Family, SampleBatch, cdf, fit_mle, pdf, quantile,
                      sample)
from belldist.distributions import log_likelihood, uniform_open
from belldist.errors import _real_values
from belldist.gof import histogram_fit_metrics
from belldist.gumbel_algebra import (gumbel_exp_moment_bounds, gumbel_max, gumbel_shift_scale,
                                    kl_bound, kl_numeric)
from belldist.losses import LossConfig, l_loss, l_loss_grad, mse_loss
from belldist.mdp import (QTable, TabularMdp, example1_row_errors, make_chain, make_example1,
                          make_random_dag, predict_gumbel)
from belldist.normal_max import normal_max_gumbel
from belldist.order_stats import order_stat_expectation, order_stat_table, sampling_error
from belldist.scaling import RewardSample, expected_error, scaling_curve
from belldist.training import TrainConfig, run_training

REWARDS = RewardSample([1.0, -1.0, -2.0], 1.0)
BATCH = SampleBatch([0.5, 1.5, 2.5])
NORMAL = DistSpec(Family.NORMAL, 0.0, 1.0)
GUMBEL = DistSpec(Family.GUMBEL, 1.5, 0.5)
CHAIN = make_chain(3)
DAG = make_random_dag(6, 3, seed=4)


@pytest.mark.parametrize("call, match", [
    (lambda: DistSpec("cauchy", 0.0, 1.0), "family must be one of gumbel, logistic, normal"),
    (lambda: fit_mle("cauchy", BATCH), "family must be one of"),
    # float() reads a numeric string, but a string is no number
    (lambda: DistSpec(Family.NORMAL, "0.5", 2.0), "location must be a real number"),
    (lambda: DistSpec(Family.NORMAL, 0.5, "2"), "scale must be a real number"),
    (lambda: SampleBatch(["a"]), "SampleBatch values must hold real numbers"),
    (lambda: SampleBatch(["1.5"]), "SampleBatch values must hold real numbers"),
    (lambda: SampleBatch([1 + 2j]), "SampleBatch values must hold real numbers"),
    (lambda: SampleBatch([[1.0], [1.0, 2.0]]), "SampleBatch values must hold real numbers"),
    (lambda: RewardSample(["a"], 1.0), "rewards must hold real numbers"),
    (lambda: l_loss(["a"]), "errors must hold real numbers"),
    (lambda: mse_loss([None]), "errors must hold real numbers"),
    (lambda: l_loss_grad(["x"]), "errors must hold real numbers"),
    (lambda: scaling_curve(REWARDS, ["a"]), "phi grid must hold real numbers"),
    (lambda: QTable([["a"]]), "QTable values must hold real numbers"),
    (lambda: TabularMdp(1, 1, [[0]], [["a"]], 0.9), "reward must hold real numbers"),
    # a ragged transition list raised a bare ValueError
    (lambda: TabularMdp(2, 1, [[1], [0, 1]], [[1.0], [1.0]], 0.9),
     r"transition/reward must have shape \(2, 1\)"),
    (lambda: TabularMdp(1, 1, [[0]], [[1.0]], "0.9"), r"gamma must lie in \(0, 1\)"),
    (lambda: kl_bound(1.0, "0.9"), r"gamma must lie in \(0, 1\)"),
    (lambda: kl_bound("1", 0.9), "a_star must be a real number"),
    (lambda: TrainConfig(tau="0.1"), r"tau must lie in \(0, 1\]"),
    (lambda: predict_gumbel(make_chain(3), 2, "0", 1.0), "c1 must be a real number"),
    (lambda: gumbel_exp_moment_bounds("1"), "a must be a real number"),
    # cdf read "1.5" as 1.5 and returned 0.933; "a" raised a bare ValueError
    (lambda: cdf(NORMAL, ["1.5"]), "x must hold real numbers"),
    (lambda: cdf(NORMAL, ["a"]), "x must hold real numbers"),
    (lambda: pdf(NORMAL, [1 + 2j]), "x must hold real numbers"),
    (lambda: quantile(NORMAL, [None]), "p must hold real numbers"),
    (lambda: log_likelihood(NORMAL, ["a"]), "data must hold real numbers"),
    (lambda: gumbel_max(["a"], 1.0), "locations must hold real numbers"),
    # an int beyond int64 is converted, but not when an entry is no number
    (lambda: cdf(NORMAL, ["a", 2**70]), "x must hold real numbers"),
    (lambda: pdf(NORMAL, [2**70, None]), "x must hold real numbers"),
    (lambda: quantile(NORMAL, [1j, 2**70]), "p must hold real numbers"),
    (lambda: SampleBatch([2**70, "1.5"]), "SampleBatch values must hold real numbers"),
    (lambda: cdf(NORMAL, 2**2000), "x must hold integers within float64's range"),
    (lambda: SampleBatch([1.5, -2**2000]),
     "SampleBatch values must hold integers within float64's range"),
], ids=["distspec-family", "fit-family", "distspec-location-str", "distspec-scale-str",
        "batch-str", "batch-numeric-str", "batch-complex", "batch-ragged", "rewards-str",
        "l_loss-str", "mse_loss-none", "l_loss_grad-str", "phi-grid-str", "qtable-str",
        "mdp-reward-str", "mdp-transition-ragged", "mdp-gamma-str", "kl_bound-gamma-str",
        "kl_bound-a_star-str", "tau-str", "predict-c1-str", "exp-moment-a-str",
        "cdf-numeric-str", "cdf-str", "pdf-complex", "quantile-none", "log_likelihood-str",
        "gumbel_max-str", "cdf-str-and-big-int", "pdf-none-and-big-int",
        "quantile-complex-and-big-int", "batch-big-int-and-str", "cdf-int-beyond-float64",
        "batch-int-beyond-float64"])
def test_non_numbers_raise_domain_error(call, match):
    with pytest.raises(DomainError, match=match):
        call()


@pytest.mark.parametrize("transition", [[[0.5]], [[0.0]], [[True]], np.array([[0.0]]), [["0"]],
                                        [[None]]])
def test_transitions_must_be_integers(transition):
    # the int64 cast stored transition 0.5 as state 0 without a word
    with pytest.raises(DomainError, match="transition entries must be integers"):
        TabularMdp(1, 1, transition, [[1.0]], 0.9)


def test_real_values_return_a_float64_array_as_it_is():
    # cdf runs on the analysis hot path (ks_statistic): a float64 array is
    # neither copied nor scanned, and the value keeps its shape
    x = np.array([[0.5, math.nan], [math.inf, 1.0]])
    assert _real_values(x, "x") is x
    assert np.array_equal(cdf(NORMAL, [1, 2]), cdf(NORMAL, np.array([1.0, 2.0])))
    assert cdf(NORMAL, 0) == 0.5


def test_integers_beyond_int64_count_as_numbers():
    # numpy keeps an int beyond int64 in an object array, and the rule
    # refused it as "must hold real numbers" although it is an integer
    assert cdf(NORMAL, 2**70) == 1.0
    assert np.array_equal(cdf(NORMAL, [2**70, -2**70, 0.0]), [1.0, 0.0, 0.5])
    assert SampleBatch([2**70, 1, 0.5]).values.tolist() == [2.0**70, 1.0, 0.5]
    assert _real_values(np.array([2**64, 3], dtype=object), "x").dtype == np.float64


def test_transition_beyond_int64_is_not_terminal():
    # 2**64 - 1 wraps to -1, TERMINAL, in an int64 cast
    big = np.array([[2**64 - 1]], dtype=np.uint64)
    with pytest.raises(DomainError, match="valid states or TERMINAL"):
        TabularMdp(1, 1, big, [[1.0]], 0.9)


@pytest.mark.parametrize("loss", [l_loss, mse_loss, l_loss_grad])
def test_nan_error_raises_domain_error(loss):
    with pytest.raises(DomainError, match="errors must not be NaN"):
        loss([0.5, math.nan])


def test_constructors_keep_copies_and_leave_the_callers_arrays_writable():
    x = np.array([1.0, 2.0, 3.0])
    trans, rew, q, grid = np.array([[0]]), np.array([[1.0]]), np.zeros((1, 1)), np.array([1.0, 2.0])
    held = [SampleBatch(x).values, RewardSample(x, 1.0).rewards, QTable(q).values,
            *(lambda m: (m.transition, m.reward))(TabularMdp(1, 1, trans, rew, 0.9)),
            scaling_curve(REWARDS, grid).phi_grid]
    for caller in (x, trans, rew, q, grid):
        caller[0] = -1  # raised "assignment destination is read-only"
    assert [h.flags.writeable for h in held] == [False] * 6
    assert [h.flat[0] for h in held] == [1.0, 1.0, 0.0, 0, 1.0, 1.0]


@pytest.mark.parametrize("call", [
    lambda: uniform_open(0, 2**60),
    lambda: sampling_error(2**60 - 1),  # its harmonic table holds n + 1 values
    lambda: order_stat_table(2**60),
    lambda: make_chain(2**59),
    lambda: make_example1(2**58),  # a (5, 2**58) table
    lambda: make_random_dag(3, 2**61, seed=0),
    lambda: histogram_fit_metrics(BATCH, DistSpec(Family.NORMAL, 0.0, 1.0), 2**60),
], ids=["uniform_open", "sampling_error", "order_stat_table", "make_chain", "make_example1",
        "make_random_dag", "histogram_fit_metrics"])
def test_sizes_beyond_numpys_array_limit_raise_domain_error(call):
    # numpy refuses 2**60 eight-byte elements or more with a bare ValueError
    with pytest.raises(DomainError, match=r"numpy's limit is 2\*\*60 - 1"):
        call()


HUGE = 10**5000  # beyond the 4,300 digits that Python prints of an int


@pytest.mark.parametrize("call", [
    lambda: uniform_open(0, HUGE),
    lambda: uniform_open(HUGE, 3),
    lambda: uniform_open(0, 3, HUGE),
    lambda: sample(NORMAL, HUGE, 0),
    lambda: make_chain(HUGE),
    lambda: make_example1(HUGE),
    lambda: sampling_error(HUGE),
    lambda: order_stat_table(HUGE),
    lambda: order_stat_expectation(3, HUGE, 0.0, 1.0),
    lambda: normal_max_gumbel(HUGE),
    lambda: histogram_fit_metrics(BATCH, NORMAL, HUGE),
    lambda: TrainConfig(epochs=-HUGE),
    lambda: TrainConfig(lr=HUGE),
    lambda: DistSpec(Family.NORMAL, 0.0, HUGE),
    lambda: predict_gumbel(CHAIN, HUGE, 0.0, 1.0),  # gamma**(t - 1) is 0
], ids=["uniform_open-n", "uniform_open-seed", "uniform_open-stream", "sample-n", "make_chain",
        "make_example1", "sampling_error", "order_stat_table", "order_stat_expectation-i",
        "normal_max_gumbel", "histogram_fit_metrics-n_bins", "TrainConfig-epochs",
        "TrainConfig-lr", "DistSpec-scale", "predict_gumbel-t"])
def test_huge_integers_raise_domain_error(call):
    # formatting the message raised a bare ValueError, and gamma**(t - 1) a
    # bare OverflowError; the message gives the integer's size instead
    with pytest.raises(DomainError, match="integer of 1661[0-2] bits"):
        call()


def test_example1_rows_stay_zero_beyond_the_horizon():
    rows = example1_row_errors(HUGE, 0)
    assert rows.t == HUGE
    assert not rows.eps_gap.any() and not rows.bellman_err.any()


def test_error_snapshot_repr_names_the_size_of_a_huge_t():
    # the dataclass repr raised ValueError on an int of more than 4,300 digits
    text = repr(example1_row_errors(HUGE, 0))
    assert isinstance(text, str)
    assert text.startswith(f"ErrorSnapshot(t=an integer of {HUGE.bit_length()} bits, eps_gap=")
    assert repr(example1_row_errors(3, 0)).startswith("ErrorSnapshot(t=3, eps_gap=array(")


def _bits(value):
    # a result as comparable data: its type and every float's exact bits
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return type(value), value.hex() if isinstance(value, float) else value


# one positive scalar argument per site, and a value it accepts
POSITIVE_SCALARS = {
    "kl_numeric-gamma": (lambda x: kl_numeric(1.0, 1.0, x), 0.9),
    "kl_numeric-b": (lambda x: kl_numeric(1.0, x, 0.9), 0.3),
    "gumbel_max-beta": (lambda x: gumbel_max([1.0, 2.0, 0.5], x), 0.3),
    "gumbel_shift_scale-c": (lambda x: gumbel_shift_scale(GUMBEL, x, 2.0), 0.1),
    "gumbel_shift_scale-k": (lambda x: gumbel_shift_scale(GUMBEL, 0.1, x), 0.7),
    "predict_gumbel-beta1": (lambda x: predict_gumbel(DAG, 3, 0.5, x), 0.7),
    "TabularMdp-gamma": (lambda x: predict_gumbel(dataclasses.replace(DAG, gamma=x), 3, 0.5, 1.0),
                         0.9),
    "TrainConfig-tau": (lambda x: run_training(CHAIN, TrainConfig(tau=x, epochs=5)).final_q,
                        0.005),
    "TrainConfig-lr": (lambda x: run_training(CHAIN, TrainConfig(lr=x, epochs=2)).final_q, 0.1),
    "LossConfig-sigma": (lambda x: l_loss_grad([0.3, -1.2, 2.0], LossConfig(x)), 0.7),
    "RewardSample-beta": (lambda x: expected_error(RewardSample([1.0, -1.0], x), 2.0), 0.7),
    "expected_error-phi": (lambda x: expected_error(REWARDS, x), 1.3),
}


@pytest.mark.parametrize("kind", ["float32", "huge-int", "str"])
@pytest.mark.parametrize("call, value", POSITIVE_SCALARS.values(), ids=POSITIVE_SCALARS)
def test_positive_scalars_compute_as_python_floats(call, value, kind):
    # a numpy float32 carried numpy's float32 rules into the arithmetic, an
    # int beyond float64 raised a bare OverflowError and a str a bare TypeError
    if kind == "float32":
        x = np.float32(value)
        assert _bits(call(x)) == _bits(call(float(x)))
    else:
        with pytest.raises(DomainError):
            call(10**400 if kind == "huge-int" else str(value))
