"""The argument rules of ``belldist.errors`` at every public site that uses them.

Each bad input raises ``DomainError`` naming the argument, not a bare
``ValueError`` or ``TypeError`` from deep inside numpy or ``math``, and never
a NaN result.  Constructors keep read-only copies, never the caller's array.
"""

import math

import numpy as np
import pytest

from belldist import DistSpec, DomainError, Family, SampleBatch, cdf, fit_mle, pdf, quantile
from belldist.distributions import log_likelihood, uniform_open
from belldist.errors import _real_values
from belldist.gof import histogram_fit_metrics
from belldist.gumbel_algebra import gumbel_exp_moment_bounds, gumbel_max, kl_bound
from belldist.losses import l_loss, l_loss_grad, mse_loss
from belldist.mdp import (QTable, TabularMdp, make_chain, make_example1, make_random_dag,
                          predict_gumbel)
from belldist.order_stats import order_stat_table, sampling_error
from belldist.scaling import RewardSample, scaling_curve
from belldist.training import TrainConfig

REWARDS = RewardSample([1.0, -1.0, -2.0], 1.0)
BATCH = SampleBatch([0.5, 1.5, 2.5])
NORMAL = DistSpec(Family.NORMAL, 0.0, 1.0)


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
], ids=["distspec-family", "fit-family", "distspec-location-str", "distspec-scale-str",
        "batch-str", "batch-numeric-str", "batch-complex", "batch-ragged", "rewards-str",
        "l_loss-str", "mse_loss-none", "l_loss_grad-str", "phi-grid-str", "qtable-str",
        "mdp-reward-str", "mdp-transition-ragged", "mdp-gamma-str", "kl_bound-gamma-str",
        "kl_bound-a_star-str", "tau-str", "predict-c1-str", "exp-moment-a-str",
        "cdf-numeric-str", "cdf-str", "pdf-complex", "quantile-none", "log_likelihood-str",
        "gumbel_max-str"])
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
