"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Criteria 3 and 5 contain sub-checks that are mathematically unattainable
(see notes in the module tests that xfail the same claims); they are asserted
as stated here and fail honestly rather than being loosened.
"""

import math
import time
from collections import deque

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

from belldist import (
    DistSpec,
    EULER_MASCHERONI,
    Family,
    SampleBatch,
    fit_mle,
    sample,
)
from belldist.cli import main as cli_main
from belldist.distributions import normal_max_quantile, uniform_open
from belldist.gof import ks_statistic
from belldist.gumbel_algebra import (
    gumbel_difference,
    gumbel_exp_moment_bounds,
    gumbel_max,
    kl_bound,
)
from belldist.losses import LN4, LossConfig, l_loss, l_loss_grad, mse_loss
from belldist.mdp import (
    TERMINAL,
    TabularMdp,
    example1_row_errors,
    make_chain,
    make_example1,
    make_random_dag,
    predict_gumbel,
    solve_qstar,
)
from belldist.normal_max import normal_max_gumbel
from belldist.order_stats import order_stat_expectation, order_stat_table, sampling_error
from belldist.scaling import RewardSample, check_conditions, expected_error, find_phi_star
from belldist.training import LOSS_LLOSS, LOSS_MSE, TrainConfig, run_training
from conftest import logs_equal

TABLE_SE = {2: 2e-2, 4: 4e-3, 8: 1e-3, 16: 3e-4, 32: 8e-5, 64: 2e-5, 128: 5e-6, 256: 1e-6}


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:2d} [{status}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_table_reproduction(tmp_path):
    started = time.monotonic()
    rc = cli_main([
        "sampling-error", "--n", ",".join(str(n) for n in TABLE_SE), "--out", str(tmp_path)
    ])
    elapsed = time.monotonic() - started
    lines = (tmp_path / "sampling_error.csv").read_text().splitlines()[1:]
    mismatches = []
    for line in lines:
        n_txt, se_txt = line.split(",")
        n, se = int(n_txt), float(se_txt)
        # one-significant-figure agreement: within one unit of the reported
        # leading digit (the n = 4 reference value 4e-3 was rounded from
        # 4.94e-3, so exact leading-digit rounding is not the right gate)
        unit = 10.0 ** math.floor(math.log10(TABLE_SE[n]))
        if abs(se - TABLE_SE[n]) > unit:
            mismatches.append((n, se))
    ok = rc == 0 and not mismatches and elapsed < 5.0
    report(1, "sampling-error reproduces the reference table in < 5 s", ok,
           f"elapsed {elapsed:.2f}s, mismatches {mismatches}")


def test_criterion_02_se_parameter_independence():
    worst = 0.0
    for n in TABLE_SE:
        base = sampling_error(n, 0.0, 1.0).s_e
        for a, b in ((-3.0, 0.2), (10.0, 5.0)):
            worst = max(worst, abs(sampling_error(n, a, b).s_e - base))
    report(2, "sampling error is (A, B)-independent within 1e-12", worst < 1e-12,
           f"worst deviation {worst:.2e}")


def test_criterion_03_kl_bound_domination_grid():
    violations = []
    for a_star in (-10.0, -1.0, 0.0, 1.0, 10.0, 100.0):
        for g in (0.9, 0.95, 0.99, 0.999):
            rep = kl_bound(a_star, g)
            if rep.numeric_kl > rep.bound:
                violations.append((a_star, g, rep.numeric_kl, rep.bound))
    at_anchor = kl_bound(100.0, 0.99)
    ok = not violations and at_anchor.bound < 13.0
    report(3, "numeric KL <= closed-form bound on the full grid, bound(100, 0.99) < 13",
           ok, f"violations {[(a, g) for a, g, *_ in violations]}")


def test_criterion_04_gumbel_algebra_oracles():
    started = time.monotonic()
    gen = np.random.Generator(np.random.Philox(key=404))
    failures = []
    for case in range(20):
        beta = float(gen.choice([0.25, 1.0, 4.0]))
        n_locs = int(gen.integers(1, 9))
        locs = gen.uniform(-5.0, 5.0, size=n_locs)
        law = gumbel_max(locs, beta)
        draws = np.max(
            [sample(DistSpec(Family.GUMBEL, c, beta), 100_000, seed=6000 + 10 * case + i).values
             for i, c in enumerate(locs)],
            axis=0,
        )
        ks_max = ks_statistic(SampleBatch(draws), law)
        x_loc, y_loc = gen.uniform(-5.0, 5.0, size=2)
        diff_law = gumbel_difference(
            DistSpec(Family.GUMBEL, x_loc, beta), DistSpec(Family.GUMBEL, y_loc, beta)
        )
        diff = (
            sample(DistSpec(Family.GUMBEL, x_loc, beta), 100_000, seed=7000 + case).values
            - sample(DistSpec(Family.GUMBEL, y_loc, beta), 100_000, seed=8000 + case).values
        )
        ks_diff = ks_statistic(SampleBatch(diff), diff_law)
        if ks_max >= 0.015 or ks_diff >= 0.015:
            failures.append((case, ks_max, ks_diff))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 30.0
    report(4, "max/difference closed forms vs Monte Carlo, KS < 0.015, 20 cases in < 30 s",
           ok, f"elapsed {elapsed:.1f}s, failures {failures}")


def test_criterion_05_moment_bounds_and_normal_max():
    bound_failures = []
    for a in (-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 5.0):
        dens = lambda x: math.exp(-((x - a) + math.exp(-(x - a))))
        m_exp = quad(lambda x: math.exp(-x) * dens(x), a - 40, a + 60, limit=300)[0]
        m_xexp = quad(lambda x: x * math.exp(-x) * dens(x), a - 40, a + 60, limit=300)[0]
        b_exp, b_xexp = gumbel_exp_moment_bounds(a)
        if not (m_exp < b_exp and m_xexp < b_xexp):
            bound_failures.append(a)
    ks_failures = []
    for n in (16, 256, 4096):
        p = normal_max_gumbel(n)
        scale = p.a_n if p.a_n > 0 else 1e-9
        xs = np.linspace(p.b_n - 12 * abs(scale) - 3, p.b_n + 30 * abs(scale) + 3, 400_001)
        exact = float(np.abs(ndtr(xs) ** n - np.exp(-np.exp(-(xs - p.b_n) / scale))).max())
        draws = normal_max_quantile(uniform_open(777, 100_000), n)
        mc = ks_statistic(SampleBatch(draws), DistSpec(Family.GUMBEL, p.b_n, abs(scale)))
        # the KS of the approximating law is its sup distance; the 1e5-draw
        # Monte Carlo value must corroborate it within sampling noise
        if not (exact < 0.02 and abs(mc - exact) < 0.005):
            ks_failures.append((n, exact, mc))
    ok = not bound_failures and not ks_failures
    report(5, "exp-moment bounds strict on 7-point grid; normal-max KS < 0.02 at {16, 256, 4096}",
           ok, f"bound failures {bound_failures}, ks failures {ks_failures}")


def _fit_ks(values: np.ndarray, family: Family) -> float:
    batch = SampleBatch(values)
    return ks_statistic(batch, fit_mle(family, batch))


def test_criterion_06_family_ordering_over_seeds():
    bad = []
    for t in (1, 2, 3, 4):
        gap_wins = err_wins = 0
        for seed in range(10):
            snap = example1_row_errors(t, seed=1200 + seed)
            gap = snap.eps_gap_flat
            if _fit_ks(gap, Family.GUMBEL) < _fit_ks(gap, Family.NORMAL):
                gap_wins += 1
            err = snap.bellman_err_flat
            ks_l = _fit_ks(err, Family.LOGISTIC)
            if ks_l < _fit_ks(err, Family.NORMAL) and ks_l < _fit_ks(err, Family.GUMBEL):
                err_wins += 1
        if gap_wins < 7 or err_wins < 7:
            bad.append((t, gap_wins, err_wins))
    report(6, "Logistic wins on Bellman error and Gumbel wins on the gap, >= 7/10 seeds at t in 1..4",
           not bad, f"shortfalls {bad}")


def test_criterion_07_moment_recursion_check():
    mdp = make_example1()
    qstar = solve_qstar(mdp)
    gamma, n = mdp.gamma, mdp.n_actions
    init = DistSpec(Family.GUMBEL, 0.0, 1.0)
    c1, b1 = gamma * math.log(n), gamma
    failures = []
    var_first = None
    for t in (1, 2, 3):
        pred = predict_gumbel(mdp, t, c1=c1, beta1=b1)
        mean_pred = (
            pred.c_t[0, 0] - gamma * qstar.values[1].max() + pred.beta_t * EULER_MASCHERONI
        )
        row = example1_row_errors(t, seed=350 + t, init=init).eps_gap[0]
        se = row.std(ddof=1) / math.sqrt(row.size)
        if abs(row.mean() - mean_pred) >= 3.0 * se:
            failures.append(("mean", t, row.mean(), mean_pred))
        if t == 1:
            var_first = row.var(ddof=1)
        else:
            ratio = row.var(ddof=1) / var_first
            if abs(ratio / gamma ** (2 * (t - 1)) - 1.0) >= 0.2:
                failures.append(("var", t, ratio))
    report(7, "gap mean matches the location recursion within 3 SE; variance ratio gamma^(2(t-1)) within 20%",
           not failures, f"failures {failures}")


def test_criterion_08_scaling_fixtures_and_range():
    phi_a = find_phi_star(RewardSample(np.array([1.0] + [-1.0] * 10), beta=1.0))
    phi_b = find_phi_star(RewardSample(np.array([2.0] + [-1.0] * 100), beta=1.0))
    fixtures_ok = (
        abs(phi_a - math.log(10.0) / 2.0) < 1e-10
        and abs(phi_b - math.log(50.0) / 3.0) < 1e-10
    )
    u = uniform_open(808, 250 * 16).reshape(250, 16)
    checked = 0
    range_ok = True
    for row in u:
        if checked >= 100:
            break
        pos = 0.2 + row[0]
        negs = -0.5 - 2.0 * row[1:12]
        cand = RewardSample(np.concatenate([[pos], negs, [0.0]]), beta=0.5 + row[12])
        if not check_conditions(cand)[1]:
            continue
        checked += 1
        phi_star = find_phi_star(cand)
        base = expected_error(cand, 1.0)
        for phi in np.linspace(1.0, phi_star, 9):
            if expected_error(cand, float(phi)) < base - 1e-12:
                range_ok = False
    ok = fixtures_ok and checked >= 100 and range_ok
    report(8, "phi* equals ln(10)/2 and ln(50)/3 within 1e-10; scaling in [1, phi*] never hurts (100 samples)",
           ok, f"phi_a {phi_a!r}, phi_b {phi_b!r}, checked {checked}")


def test_criterion_09_loss_taylor_and_gradient():
    ts = np.linspace(-0.5, 0.5, 501)
    ts = ts[ts != 0.0]
    ratio_ok = True
    for t in ts:
        gap = abs(l_loss(np.array([t])) - (LN4 + 0.5 * mse_loss(np.array([t]))))
        if gap / t**4 > 0.011:
            ratio_ok = False
    grad_ok = True
    cfg = LossConfig(sigma=0.9)
    errs = np.array([-2.0, -0.5, 0.1, 3.0])
    h = 1e-6
    for i in range(errs.size):
        up, dn = errs.copy(), errs.copy()
        up[i] += h
        dn[i] -= h
        numeric = (l_loss(up, cfg) - l_loss(dn, cfg)) / (2.0 * h)
        if abs(numeric - l_loss_grad(errs, cfg)[i]) >= 1e-7:
            grad_ok = False
    report(9, "|lloss - (ln4 + mse/2)| / t^4 <= 0.011 on |t| <= 0.5; gradient matches finite differences to 1e-7",
           ratio_ok and grad_ok)


def test_criterion_10_order_statistics_vs_monte_carlo():
    failures = []
    for n in (2, 4, 8, 16):
        u = uniform_open(9000 + n, 1_000_000 * n).reshape(1_000_000, n)
        draws = np.sort(np.log(u) - np.log1p(-u), axis=1)
        for i in range(1, n + 1):
            col = draws[:, i - 1]
            se = col.std(ddof=1) / math.sqrt(col.size)
            expected = order_stat_expectation(n, i, 0.0, 1.0)
            if abs(col.mean() - expected) >= 3.0 * se:
                failures.append((n, i))
        table = order_stat_table(n, a=0.37, b=2.1).expectations
        if np.max(np.abs(table + table[::-1] - 2 * 0.37)) >= 1e-12:
            failures.append((n, "antisymmetry"))
    report(10, "order-statistic expectations match 1e6-replicate Monte Carlo within 3 SE; antisymmetry exact to 1e-12",
           not failures, f"failures {failures}")


def _reachable(env: TabularMdp, start: int = 0) -> list[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for a in range(env.n_actions):
            nxt = int(env.transition[s, a])
            if nxt != TERMINAL and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(seen)


def test_criterion_11_training_recovers_optimal_policies():
    results = {}
    for env_name, env in (("chain5", make_chain(5)), ("dag12", make_random_dag(12, 4, seed=123))):
        optimal = np.argmax(solve_qstar(env).values, axis=1)
        reach = _reachable(env)
        for loss in (LOSS_MSE, LOSS_LLOSS):
            hits = 0
            for seed in range(10):
                cfg = TrainConfig(loss=loss, sigma=1.0, lr=0.5, epochs=500, seed=seed)
                log = run_training(env, cfg)
                # optimality is judged on states reachable from the start;
                # unreachable states never appear in replay
                if np.all(log.final_policy[reach] == optimal[reach]):
                    hits += 1
            results[(env_name, loss)] = hits
    env = make_chain(5)
    cfg = TrainConfig(loss=LOSS_LLOSS, lr=0.5, epochs=120, seed=5)
    repro = logs_equal(run_training(env, cfg), run_training(env, cfg))
    ok = all(h >= 9 for h in results.values()) and repro
    report(11, "both loss arms recover the optimal reachable-state policy in >= 9/10 seeds; runs are bit-reproducible",
           ok, f"hits {results}, reproducible {repro}")
