import json
import math
import warnings

import numpy as np
import pytest

from belldist import (
    ConvergenceError,
    DistSpec,
    DomainError,
    EULER_MASCHERONI,
    Family,
    SampleBatch,
)
from belldist.gof import ks_statistic
from belldist.mdp import (
    TERMINAL,
    QTable,
    TabularMdp,
    bellman_step,
    example1_row_errors,
    init_q,
    make_chain,
    make_example1,
    make_random_dag,
    predict_gumbel,
    snapshot_errors,
    solve_qstar,
)
from conftest import mdp_json


def backward_induction(mdp: TabularMdp) -> np.ndarray:
    """Independent oracle for episodic DAGs: evaluate states in reverse
    topological order (successors always have larger indices)."""
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for s in range(mdp.n_states - 1, -1, -1):
        for a in range(mdp.n_actions):
            nxt = mdp.transition[s, a]
            cont = 0.0 if nxt == TERMINAL else q[nxt].max()
            q[s, a] = mdp.reward[s, a] + mdp.gamma * cont
    return q


def two_state_chain() -> TabularMdp:
    return TabularMdp(
        n_states=2,
        n_actions=1,
        transition=np.array([[1], [TERMINAL]]),
        reward=np.ones((2, 1)),
        gamma=0.5,
    )


# ---------------------------------------------------------------------------
# construction / serialization
# ---------------------------------------------------------------------------

def test_mdp_validation():
    with pytest.raises(DomainError):
        TabularMdp(2, 1, np.array([[5], [0]]), np.ones((2, 1)), 0.9)
    with pytest.raises(DomainError):
        TabularMdp(2, 1, np.array([[1], [0]]), np.ones((2, 1)), 1.0)
    with pytest.raises(DomainError):
        TabularMdp(2, 1, np.array([[1], [0]]), np.full((2, 1), np.nan), 0.9)


def test_mdp_json_roundtrip():
    mdp = make_random_dag(6, 3, seed=5)
    loaded = TabularMdp.from_json(mdp_json(mdp))
    assert loaded.n_states == mdp.n_states
    assert np.array_equal(loaded.transition, mdp.transition)
    assert np.array_equal(loaded.reward, mdp.reward)
    assert loaded.gamma == mdp.gamma


@pytest.mark.parametrize("text", [
    "not json",
    '{"n_states": 2}',
    '{"n_states": 2, "n_actions": 1, "transitions": [[1], [-1]], "rewards": [[0], ["x"]],'
    ' "gamma": 0.9}',
    "[]",
], ids=["syntax", "missing-keys", "non-numeric", "not-an-object"])
def test_mdp_from_json_malformed_raises_domain_error(text):
    with pytest.raises(DomainError):
        TabularMdp.from_json(text)


@pytest.mark.parametrize("field, value", [
    ("n_states", 2.7),
    ("n_states", "2"),
    ("n_actions", True),
    ("transitions", [[1.9], [-1]]),
], ids=["fractional-count", "string-count", "bool-count", "fractional-transition"])
def test_mdp_from_json_rejects_non_integer_counts_and_transitions(field, value):
    # int() and an int64 cast would load these as 2, 2, 1 and state 1
    valid = {"n_states": 2, "n_actions": 1, "transitions": [[1], [-1]],
             "rewards": [[0.5], [1.0]], "gamma": 0.9}
    TabularMdp.from_json(json.dumps(valid))
    with pytest.raises(DomainError, match="JSON integer"):
        TabularMdp.from_json(json.dumps({**valid, field: value}))


@pytest.mark.parametrize("field, value", [
    ("gamma", "0.9"),
    ("rewards", [["1.5"], [1.0]]),
    ("rewards", [[True], [False]]),
], ids=["string-gamma", "string-reward", "bool-reward"])
def test_mdp_from_json_rejects_non_numeric_gamma_and_rewards(field, value):
    # float() and a float cast would load these as 0.9, 1.5 and 1.0
    valid = {"n_states": 2, "n_actions": 1, "transitions": [[1], [-1]],
             "rewards": [[0.5], [1]], "gamma": 0.9}
    TabularMdp.from_json(json.dumps(valid))
    with pytest.raises(DomainError, match="JSON number"):
        TabularMdp.from_json(json.dumps({**valid, field: value}))


def test_make_example1_shape_and_rewards():
    mdp = make_example1()
    assert (mdp.n_states, mdp.n_actions) == (5, 5000)
    assert np.all(mdp.reward == 1.0)
    assert np.all(mdp.transition[:-1] == np.arange(1, 5)[:, None])
    assert np.all(mdp.transition[-1] == TERMINAL)


# ---------------------------------------------------------------------------
# init_q
# ---------------------------------------------------------------------------

def test_init_q_deterministic():
    mdp = make_chain(5)
    a = init_q(mdp, DistSpec(Family.NORMAL, 0, 1), seed=9)
    b = init_q(mdp, DistSpec(Family.NORMAL, 0, 1), seed=9)
    assert np.array_equal(a.values, b.values)
    assert a.iteration == 0


def test_init_q_gumbel_cellwise_law():
    mdp = make_example1()
    table = init_q(mdp, DistSpec(Family.GUMBEL, 0, 1), seed=10)
    ks = ks_statistic(SampleBatch(table.values.reshape(-1)), DistSpec(Family.GUMBEL, 0, 1))
    assert ks < 0.01


def test_init_q_seeds_differ():
    mdp = make_example1()
    a = init_q(mdp, DistSpec(Family.NORMAL, 0, 1), seed=1).values
    b = init_q(mdp, DistSpec(Family.NORMAL, 0, 1), seed=2).values
    assert np.mean(a != b) >= 0.99


def test_init_q_rejects_logistic():
    with pytest.raises(DomainError):
        init_q(make_chain(3), DistSpec(Family.LOGISTIC, 0, 1), seed=0)


# ---------------------------------------------------------------------------
# bellman_step / solve_qstar
# ---------------------------------------------------------------------------

def test_zero_fixed_point():
    mdp = TabularMdp(
        2, 2, np.array([[1, 1], [TERMINAL, 0]]), np.zeros((2, 2)), 0.9
    )
    q = QTable(np.zeros((2, 2)))
    assert np.all(bellman_step(mdp, q).values == 0.0)


def test_qstar_is_fixed_point_of_step():
    mdp = make_example1(n_actions=50)
    qstar = solve_qstar(mdp)
    stepped = bellman_step(mdp, qstar)
    assert np.max(np.abs(stepped.values - qstar.values)) < 1e-11


def test_two_state_hand_iteration():
    mdp = two_state_chain()
    q0 = QTable(np.zeros((2, 1)))
    q1 = bellman_step(mdp, q0)
    assert np.array_equal(q1.values, [[1.0], [1.0]])
    assert q1.iteration == 1
    q2 = bellman_step(mdp, q1)
    assert np.array_equal(q2.values, [[1.5], [1.0]])


def test_qstar_example1_row_values():
    mdp = make_example1(n_actions=40)
    qstar = solve_qstar(mdp)
    for i in range(5):
        expected = sum(0.99**k for k in range(5 - i))
        assert qstar.values[i, 0] == pytest.approx(expected, abs=1e-10)
    assert qstar.values[0, 0] == pytest.approx(4.90099501, abs=1e-8)
    assert qstar.values[4, 0] == pytest.approx(1.0, abs=1e-12)


def test_qstar_absorbing_state_geometric():
    mdp = TabularMdp(1, 1, np.array([[0]]), np.ones((1, 1)), 0.99)
    qstar = solve_qstar(mdp)
    assert qstar.values[0, 0] == pytest.approx(100.0, abs=1e-9)


def test_qstar_matches_backward_induction():
    mdp = make_random_dag(10, 5, seed=77)
    qstar = solve_qstar(mdp)
    assert np.max(np.abs(qstar.values - backward_induction(mdp))) < 1e-10


def test_solve_qstar_budget_error(monkeypatch):
    mdp = TabularMdp(1, 1, np.array([[0]]), np.ones((1, 1)), 0.9)
    monkeypatch.setattr("belldist.mdp._MAX_SWEEPS", 3)
    with pytest.raises(ConvergenceError):
        solve_qstar(mdp)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_contraction_property(seed):
    mdp = make_random_dag(8, 4, seed=seed)
    qstar = solve_qstar(mdp)
    q = init_q(mdp, DistSpec(Family.NORMAL, 0, 1), seed=seed)
    for _ in range(6):
        nxt = bellman_step(mdp, q)
        before = np.max(np.abs(q.values - qstar.values))
        after = np.max(np.abs(nxt.values - qstar.values))
        assert after <= mdp.gamma * before + 1e-12
        q = nxt


# ---------------------------------------------------------------------------
# snapshot_errors
# ---------------------------------------------------------------------------

def test_snapshot_zero_at_optimum():
    mdp = make_chain(4)
    qstar = solve_qstar(mdp)
    snap = snapshot_errors(mdp, qstar, qstar)
    assert np.max(np.abs(snap.eps_gap)) < 1e-11
    assert np.max(np.abs(snap.bellman_err)) < 1e-11


def test_snapshot_sign_convention():
    # raising Q_hat(s, .) only, for a state not reachable from itself, leaves
    # targets alone and lowers (target - estimate): the mean must go negative
    mdp = make_chain(4)
    qstar = solve_qstar(mdp)
    bumped = qstar.values.copy()
    bumped[0, :] += 1.0
    snap = snapshot_errors(mdp, QTable(bumped), qstar)
    assert snap.bellman_err[0].mean() < 0
    assert np.allclose(snap.eps_gap[0], 1.0)


# ---------------------------------------------------------------------------
# predict_gumbel
# ---------------------------------------------------------------------------

def test_predict_base_case():
    # the last state's cells end the episode: Q_1 = r there, no Gumbel law
    mdp = make_example1(n_actions=20)
    pred = predict_gumbel(mdp, 1, c1=0.3, beta1=0.7)
    assert np.all(pred.c_t[:4] == 0.3)
    assert np.isnan(pred.c_t[4]).all()
    assert pred.beta_t == 0.7


def test_predict_t0_rejected():
    with pytest.raises(DomainError):
        predict_gumbel(make_example1(n_actions=5), 0, 0.0, 1.0)


def test_predict_uniform_reward_closed_form():
    # constant reward 1 on n actions telescopes to
    # c_k = gamma*(c_{k-1} + beta_{k-1}*log(n) + 1); row s is finite while
    # s + t < 5, the horizon of the five-state chain
    n = 20
    mdp = make_example1(n_actions=n)
    c1, b1 = 0.4, 1.3
    c, beta = c1, b1
    for t in (2, 3, 4):
        c = 0.99 * (c + beta * math.log(n) + 1.0)
        beta *= 0.99
        pred = predict_gumbel(mdp, t, c1=c1, beta1=b1)
        live = np.isfinite(pred.c_t)
        assert live[: 5 - t].all() and not live[5 - t :].any()
        assert pred.c_t[live] == pytest.approx(c, rel=1e-13)
        assert pred.beta_t == pytest.approx(beta, rel=1e-15)


def test_predict_beta_contraction_exact():
    mdp = make_example1(n_actions=8)
    for t in (1, 2, 5, 9):
        pred = predict_gumbel(mdp, t, c1=0.0, beta1=2.0)
        assert pred.beta_t == 2.0 * mdp.gamma ** (t - 1)


def test_predict_terminal_cells_nan_in_general_path():
    mdp = TabularMdp(
        2,
        2,
        np.array([[1, 1], [TERMINAL, TERMINAL]]),
        np.array([[1.0, 2.0], [0.5, 0.25]]),
        0.9,
    )
    pred = predict_gumbel(mdp, 1, c1=0.0, beta1=1.0)
    assert np.isfinite(pred.c_t[0]).all()
    assert np.isnan(pred.c_t[1]).all()
    assert np.isnan(predict_gumbel(mdp, 2, c1=0.0, beta1=1.0).c_t).all()


@pytest.mark.parametrize("mdp", [make_random_dag(12, 4, seed=3), make_chain(5)],
                         ids=["dag:12,4", "chain:5"])
def test_predict_nan_on_every_exactly_constant_cell(mdp):
    # Oracle: literal Q-iteration from 200 Gumbel initial tables.  A cell
    # whose value is the same from every table does not depend on the
    # initialization, so it has no Gumbel law and must be NaN.
    init = DistSpec(Family.GUMBEL, 0.0, 1.0)
    tables = [init_q(mdp, init, seed) for seed in range(200)]
    for t in range(1, 7):
        tables = [bellman_step(mdp, q) for q in tables]
        exact = np.ptp(np.stack([q.values for q in tables]), axis=0) == 0.0
        c_t = predict_gumbel(mdp, t, c1=mdp.gamma * math.log(mdp.n_actions), beta1=mdp.gamma).c_t
        assert exact.any()
        assert np.isnan(c_t[exact]).all(), t


def predict_gumbel_scipy(mdp: TabularMdp, t: int, c1: float, beta1: float) -> np.ndarray:
    """The location recursion with scipy's logsumexp, as an oracle for c_t's bits."""
    from scipy.special import logsumexp

    terminal = mdp.transition == TERMINAL
    c = np.where(terminal, np.nan, c1)
    beta = beta1
    for _ in range(2, t + 1):
        per_state = mdp.gamma * beta * logsumexp((mdp.reward + c) / beta, axis=1)
        c = np.where(terminal, np.nan, per_state[mdp.transition])
        beta *= mdp.gamma
    return c


@pytest.mark.parametrize("mdp", [make_chain(5), make_example1(n_actions=20)]
                         + [make_random_dag(12, 4, seed=seed) for seed in range(4)],
                         ids=["chain:5", "example1:20"] + [f"dag:12,4-seed{s}" for s in range(4)])
def test_predict_bit_identical_to_scipy_recursion(mdp):
    for c1, beta1 in ((0.0, 1.0), (mdp.gamma * math.log(mdp.n_actions), mdp.gamma), (-0.3, 0.05)):
        for t in range(1, 7):
            got = predict_gumbel(mdp, t, c1=c1, beta1=beta1).c_t
            assert np.array_equal(got, predict_gumbel_scipy(mdp, t, c1, beta1), equal_nan=True)


@pytest.mark.parametrize("c1, beta1, match", [
    (0.0, 1e-310, "overflows"),  # (r + c) / beta is beyond float64 from t = 2
    (0.0, math.inf, "beta1"),  # gave an all-NaN c_t
    (0.0, math.nan, "beta1"),
    (math.inf, 1.0, "c1"),  # gave infinite cells
    (math.nan, 1.0, "c1"),
], ids=["tiny-beta1", "inf-beta1", "nan-beta1", "inf-c1", "nan-c1"])
def test_predict_rejects_non_finite_parameters_without_warning(c1, beta1, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=match):
            predict_gumbel(make_chain(5), 3, c1=c1, beta1=beta1)


def test_predict_underflowing_scale_raises_domain_error():
    # 0.99**79999 underflows: the prediction would carry a Gumbel scale of 0
    with pytest.raises(DomainError, match="underflows"):
        predict_gumbel(make_chain(5), 80_000, c1=0.0, beta1=1.0)


def test_predict_stops_once_every_cell_is_nan(monkeypatch):
    # chain:5 is NaN on every cell from t = 6: steps 2..6 run the kernel, and
    # the other 59,994 steps, which cannot change an all-NaN table, do not
    from belldist import mdp as mdp_module

    real = mdp_module._logsumexp
    calls = []

    def counting(x, beta):
        calls.append(None)
        return real(x, beta)

    monkeypatch.setattr(mdp_module, "_logsumexp", counting)
    chain = make_chain(5)
    pred = predict_gumbel(chain, 60_000, c1=0.0, beta1=1.0)
    assert len(calls) <= 5
    assert np.isnan(pred.c_t).all()
    assert pred.beta_t == chain.gamma ** 59_999


# ---------------------------------------------------------------------------
# independent-successor benchmark rows
# ---------------------------------------------------------------------------

def test_row_errors_deterministic_and_shapes():
    a = example1_row_errors(2, seed=3)
    b = example1_row_errors(2, seed=3)
    assert np.array_equal(a.eps_gap, b.eps_gap)
    assert a.eps_gap.shape == (1, 5000)


def test_row_errors_domain():
    with pytest.raises(DomainError):
        example1_row_errors(0, seed=1)
    with pytest.raises(DomainError):
        example1_row_errors(1, seed=1, init=DistSpec(Family.LOGISTIC, 0, 1))


@pytest.mark.parametrize("call", [
    lambda: predict_gumbel(make_example1(n_actions=5), 2.5, 0.0, 1.0),
    lambda: example1_row_errors(1.5, seed=0),
], ids=["predict_gumbel", "example1_row_errors"])
def test_non_integer_iteration_is_domain_error(call):
    # predict_gumbel raised a bare TypeError; example1_row_errors returned a
    # snapshot with t = 1.5
    with pytest.raises(DomainError, match="iteration index must be an integer"):
        call()


def test_row_errors_gumbel_init_moments():
    # With a Gumbel(0, 1) init the gap law is exactly
    # Gumbel(c_t - gamma*maxQ*(s'), beta_t) for c_1 = gamma*log(n),
    # beta_1 = gamma; check mean within 3 SE and the variance contraction.
    mdp = make_example1()
    qstar = solve_qstar(mdp)
    gamma, n = mdp.gamma, mdp.n_actions
    init = DistSpec(Family.GUMBEL, 0.0, 1.0)
    var_first = None
    for t in (1, 2, 3):
        pred = predict_gumbel(mdp, t, c1=gamma * math.log(n), beta1=gamma)
        location = pred.c_t[0, 0] - gamma * qstar.values[1].max()
        mean_pred = location + pred.beta_t * EULER_MASCHERONI
        row = example1_row_errors(t, seed=50 + t, init=init).eps_gap[0]
        se = row.std(ddof=1) / math.sqrt(row.size)
        assert abs(row.mean() - mean_pred) < 3.0 * se
        if t == 1:
            var_first = row.var(ddof=1)
        else:
            ratio = row.var(ddof=1) / var_first
            assert abs(ratio / gamma ** (2 * (t - 1)) - 1.0) < 0.2


def test_row_errors_horizon_collapse():
    snap = example1_row_errors(5, seed=9)
    assert np.all(snap.eps_gap == 0.0)
    snap4 = example1_row_errors(4, seed=9)
    # at t = 4 the target side is exact, so the Bellman error is minus the gap
    assert np.allclose(snap4.bellman_err, -snap4.eps_gap, atol=1e-12)


def test_row_errors_family_ordering_majority():
    # fitted-family ordering over 5 seeds at t = 1: Gumbel should beat Normal
    # on the gap rows, Logistic should beat both on the Bellman-error rows
    from belldist import fit_mle

    gap_wins = err_wins = 0
    for seed in range(5):
        snap = example1_row_errors(1, seed=200 + seed)
        gap = SampleBatch(snap.eps_gap_flat)
        ks_g = ks_statistic(gap, fit_mle(Family.GUMBEL, gap))
        ks_n = ks_statistic(gap, fit_mle(Family.NORMAL, gap))
        gap_wins += ks_g < ks_n
        err = SampleBatch(snap.bellman_err_flat)
        ks_l = ks_statistic(err, fit_mle(Family.LOGISTIC, err))
        ks_gn = min(
            ks_statistic(err, fit_mle(Family.GUMBEL, err)),
            ks_statistic(err, fit_mle(Family.NORMAL, err)),
        )
        err_wins += ks_l < ks_gn
    assert gap_wins >= 4
    assert err_wins >= 4
