"""Settings the paper fixes are constants, not options.

No keyword sets them any more, and each keeps the value it had as a default:
the replay schedule and replay size of training, the MLP's width (a
TrainConfig field once, then an ``MlpQ`` parameter), the 0.99 discount and
the benchmark's five states of the built-in environments, the random-DAG
reward range, and the stopping rules of value iteration, of the phi*
bisection and of the equal-scale check of ``gumbel_difference``.
"""

import dataclasses

import numpy as np
import pytest

from belldist import DistSpec, Family, SampleBatch, ScaleMismatchError
from belldist import mdp as mdp_module
from belldist.distributions import sample, uniform_open
from belldist.gumbel_algebra import gumbel_difference
from belldist.mdp import (
    QTable,
    TabularMdp,
    bellman_step,
    example1_row_errors,
    make_chain,
    make_example1,
    make_random_dag,
    solve_qstar,
)
from belldist.scaling import RewardSample, ScalingCurve, _gprime, find_phi_star
from belldist.training import MlpQ, TrainConfig, TrainLog

SELF_LOOP = TabularMdp(1, 1, np.array([[0]]), np.ones((1, 1)), 0.9)
GRID = np.linspace(0.5, 2.0, 7)


def value_iteration(mdp: TabularMdp, tol: float) -> np.ndarray:
    """Synchronous Q-iteration from zeros until the sup-norm change is below tol."""
    q = np.zeros((mdp.n_states, mdp.n_actions))
    while True:
        nxt = bellman_step(mdp, QTable(q)).values
        if np.max(np.abs(nxt - q)) < tol:
            return nxt
        q = nxt


def bisection(s: RewardSample, tol: float, max_iter: int) -> float:
    """phi* by bracket doubling plus a bisection with a step budget."""
    lo, hi = 1.0, 2.0
    while _gprime(s, hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            return mid
        lo, hi = (mid, hi) if _gprime(s, mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


PHI_SAMPLES = [
    RewardSample(np.array([1.0] + [-1.0] * 10), beta=1.0),
    RewardSample(np.array([0.3, -0.7, -1.9, 0.0]), beta=2.0),
    RewardSample(np.array([1e-7, -1e-7, -1e-7]), beta=1.0),  # phi* ~ 3.47e6
]


def phi_star_matches_budgeted_bisection() -> bool:
    return all(find_phi_star(s) == bisection(s, 1e-10, 200) for s in PHI_SAMPLES)


def dag_keeps_reward_range() -> bool:
    mdp = make_random_dag(12, 4, seed=0)
    rew_u = uniform_open(0, 2 * 12 * 4)[12 * 4 :].reshape(12, 4)
    return np.array_equal(mdp.reward, 0.05 + (1.0 - 0.05) * rew_u)


def row_errors_keep_benchmark(t: int) -> bool:
    # Gumbel(0, 1) init: gap_t = gamma^t * (log(5000^t) - log(-log u) - max Q*(s_t))
    snap = example1_row_errors(t, seed=4, init=DistSpec(Family.GUMBEL, 0.0, 1.0))
    u = uniform_open(4, 5000, stream=0)
    qstar = (1.0 - 0.99 ** (5 - t)) / (1.0 - 0.99)
    expected = 0.99**t * (t * np.log(5000.0) - np.log(-np.log(u)) - qstar)
    return snap.eps_gap.shape == (1, 5000) and np.allclose(snap.eps_gap[0], expected, rtol=1e-12)


def equal_scale_tolerance_is_1e_12() -> bool:
    g = DistSpec(Family.GUMBEL, 0.0, 1.0)
    gumbel_difference(g, DistSpec(Family.GUMBEL, 0.0, 1.0 + 5e-13))
    with pytest.raises(ScaleMismatchError):
        gumbel_difference(g, DistSpec(Family.GUMBEL, 0.0, 1.0 + 2e-12))
    return True


def fresh_mlp(**kw) -> MlpQ:
    # params[1] is the hidden layer's bias, one entry per hidden unit
    return MlpQ(3, 2, rng=np.random.Generator(np.random.Philox(key=0)), **kw)


def curve(**kw) -> ScalingCurve:
    return ScalingCurve(phi_grid=GRID, expectations=-GRID, cond1=True, cond2=True, **kw)


# (removed keyword, call that passes it, check that the fixed value is the old default)
REMOVED = {
    "TrainConfig.steps_per_epoch": (lambda **kw: TrainConfig(**kw), 64,
                                    lambda: TrainConfig().steps_per_epoch == 64),
    "TrainConfig.updates_per_epoch": (lambda **kw: TrainConfig(**kw), 16,
                                      lambda: TrainConfig().updates_per_epoch == 16),
    "TrainConfig.epsilon_start": (lambda **kw: TrainConfig(**kw), 1.0,
                                  lambda: TrainConfig().epsilon_start == 1.0),
    "TrainConfig.epsilon_final": (lambda **kw: TrainConfig(**kw), 0.05,
                                  lambda: TrainConfig().epsilon_final == 0.05),
    "TrainConfig.hidden": (lambda **kw: TrainConfig(**kw), 32, lambda: TrainConfig().hidden == 32),
    "MlpQ.hidden": (fresh_mlp, 32, lambda: fresh_mlp().params[1].shape == (32,)),
    "TrainConfig.replay_capacity": (lambda **kw: TrainConfig(**kw), 10_000,
                                    lambda: TrainConfig().replay_capacity == 10_000),
    "solve_qstar.tol": (lambda **kw: solve_qstar(SELF_LOOP, **kw), 1e-12,
                        lambda: np.array_equal(solve_qstar(SELF_LOOP).values,
                                               value_iteration(SELF_LOOP, 1e-12))),
    "solve_qstar.max_iter": (lambda **kw: solve_qstar(SELF_LOOP, **kw), 1_000_000,
                             lambda: mdp_module._MAX_SWEEPS == 1_000_000),
    "make_example1.n_states": (lambda **kw: make_example1(**kw), 5,
                               lambda: make_example1(n_actions=3).n_states == 5),
    "make_example1.gamma": (lambda **kw: make_example1(**kw), 0.99,
                            lambda: make_example1(n_actions=3).gamma == 0.99),
    "make_chain.gamma": (lambda **kw: make_chain(4, **kw), 0.99, lambda: make_chain(4).gamma == 0.99),
    "make_random_dag.gamma": (lambda **kw: make_random_dag(12, 4, seed=0, **kw), 0.99,
                              lambda: make_random_dag(12, 4, seed=0).gamma == 0.99),
    "make_random_dag.reward_low": (lambda **kw: make_random_dag(12, 4, seed=0, **kw), 0.05,
                                   dag_keeps_reward_range),
    "make_random_dag.reward_high": (lambda **kw: make_random_dag(12, 4, seed=0, **kw), 1.0,
                                    dag_keeps_reward_range),
    "example1_row_errors.n_states": (lambda **kw: example1_row_errors(1, 0, **kw), 5,
                                     lambda: not example1_row_errors(5, 0).eps_gap.any()
                                     and row_errors_keep_benchmark(4)),
    "example1_row_errors.n_actions": (lambda **kw: example1_row_errors(1, 0, **kw), 5000,
                                      lambda: row_errors_keep_benchmark(1)),
    "example1_row_errors.gamma": (lambda **kw: example1_row_errors(1, 0, **kw), 0.99,
                                  lambda: row_errors_keep_benchmark(2)),
    "find_phi_star.tol": (lambda **kw: find_phi_star(PHI_SAMPLES[0], **kw), 1e-10,
                          phi_star_matches_budgeted_bisection),
    "find_phi_star.max_iter": (lambda **kw: find_phi_star(PHI_SAMPLES[0], **kw), 200,
                               phi_star_matches_budgeted_bisection),
    "ScalingCurve.below_regime": (curve, GRID < 1.0,
                                  lambda: np.array_equal(curve().below_regime, GRID < 1.0)),
    "gumbel_difference.rel_tol": (
        lambda **kw: gumbel_difference(DistSpec(Family.GUMBEL, 0, 1), DistSpec(Family.GUMBEL, 0, 1),
                                       **kw),
        1e-12, equal_scale_tolerance_is_1e_12),
    "SampleBatch.seed": (lambda **kw: SampleBatch(np.zeros(1), **kw), 1,
                         lambda: not hasattr(sample(DistSpec(Family.NORMAL, 0, 1), 4, 1), "seed")),
}


@pytest.mark.parametrize("name", list(REMOVED))
def test_removed_option_is_a_constant(name):
    call, old_default, keeps_old_default = REMOVED[name]
    with pytest.raises(TypeError):
        call(**{name.split(".")[1]: old_default})
    assert keeps_old_default()


def test_never_read_fields_are_gone():
    assert len(dataclasses.fields(TrainConfig)) == 10
    assert "config" not in {f.name for f in dataclasses.fields(TrainLog)}
    assert "sample" not in {f.name for f in dataclasses.fields(ScalingCurve)}
