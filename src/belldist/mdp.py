"""Deterministic finite-MDP Q-iteration with error tracking.

States are 0-based; a transition entry of ``TERMINAL`` (-1) means the episode
ends and the successor contributes exactly 0 to the Bellman target.  Two error
arrays are tracked per iterate: the optimality gap  Q_hat - Q*  and the
Bellman error  [r + gamma * max_a' Q_hat(s', a')] - Q_hat(s, a)  (target minus
estimate).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .distributions import DistSpec, Family, normal_max_quantile, quantile, uniform_open
from .errors import ConvergenceError, DomainError

TERMINAL = -1


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP with a deterministic transition function.

    transition[s, a] is the unique successor state (or TERMINAL); reward[s, a]
    is the immediate reward; gamma is the discount in (0, 1).
    """

    n_states: int
    n_actions: int
    transition: np.ndarray
    reward: np.ndarray
    gamma: float

    def __post_init__(self):
        trans = np.asarray(self.transition, dtype=np.int64)
        rew = np.asarray(self.reward, dtype=float)
        shape = (self.n_states, self.n_actions)
        if self.n_states < 1 or self.n_actions < 1:
            raise DomainError("n_states and n_actions must be >= 1")
        if trans.shape != shape or rew.shape != shape:
            raise DomainError(f"transition/reward must have shape {shape}")
        if not np.all((trans == TERMINAL) | ((trans >= 0) & (trans < self.n_states))):
            raise DomainError("transition entries must be valid states or TERMINAL")
        if not np.all(np.isfinite(rew)):
            raise DomainError("rewards must be finite")
        if not 0.0 < self.gamma < 1.0:
            raise DomainError(f"gamma must lie in (0, 1), got {self.gamma}")
        trans.setflags(write=False)
        rew.setflags(write=False)
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "reward", rew)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_states": self.n_states,
                "n_actions": self.n_actions,
                "gamma": self.gamma,
                "transitions": self.transition.tolist(),
                "rewards": self.reward.tolist(),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "TabularMdp":
        try:
            obj = json.loads(text)
            fields = dict(
                n_states=int(obj["n_states"]),
                n_actions=int(obj["n_actions"]),
                transition=np.array(obj["transitions"], dtype=np.int64),
                reward=np.array(obj["rewards"], dtype=float),
                gamma=float(obj["gamma"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise DomainError(
                "MDP JSON needs numeric n_states, n_actions, transitions, rewards and gamma"
                f" ({type(exc).__name__}: {exc})"
            ) from exc
        return cls(**fields)


@dataclass(frozen=True)
class QTable:
    values: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise DomainError("QTable values must be 2-D (states x actions)")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _check_shapes(mdp: TabularMdp, q: QTable) -> None:
    if q.values.shape != (mdp.n_states, mdp.n_actions):
        raise DomainError(
            f"QTable shape {q.values.shape} does not match MDP "
            f"({mdp.n_states}, {mdp.n_actions})"
        )


def init_q(mdp: TabularMdp, init: DistSpec, seed: int) -> QTable:
    """Fill a fresh table with i.i.d. draws from ``init`` (Gumbel or Normal)."""
    if init.family not in (Family.GUMBEL, Family.NORMAL):
        raise DomainError("init_q supports Gumbel or Normal initialization only")
    u = uniform_open(seed, mdp.n_states * mdp.n_actions)
    values = quantile(init, u).reshape(mdp.n_states, mdp.n_actions)
    return QTable(values=values, iteration=0)


def successor_max(mdp: TabularMdp, values: np.ndarray) -> np.ndarray:
    """max_a' Q(T(s, a), a') per (s, a); terminal successors contribute 0."""
    row_max = values.max(axis=1)
    safe = np.clip(mdp.transition, 0, mdp.n_states - 1)
    return np.where(mdp.transition == TERMINAL, 0.0, row_max[safe])


def bellman_step(mdp: TabularMdp, q: QTable) -> QTable:
    """One synchronous hard-max update: Q' = r + gamma * max_a' Q(s', a')."""
    _check_shapes(mdp, q)
    new_values = mdp.reward + mdp.gamma * successor_max(mdp, q.values)
    return QTable(values=new_values, iteration=q.iteration + 1)


def solve_qstar(mdp: TabularMdp, tol: float = 1e-12, max_iter: int = 1_000_000) -> QTable:
    """Fixed point of bellman_step to sup-norm ``tol``."""
    q = QTable(values=np.zeros((mdp.n_states, mdp.n_actions)))
    for _ in range(max_iter):
        nxt = bellman_step(mdp, q)
        if float(np.max(np.abs(nxt.values - q.values))) < tol:
            return QTable(values=nxt.values, iteration=0)
        q = nxt
    raise ConvergenceError(f"value iteration did not reach {tol} in {max_iter} steps")


@dataclass(frozen=True)
class ErrorSnapshot:
    """Per-cell error arrays at iteration t, with row labels in state_ids."""

    t: int
    eps_gap: np.ndarray  # (rows, n_actions)
    bellman_err: np.ndarray  # (rows, n_actions)
    state_ids: np.ndarray  # (rows,)

    def __post_init__(self):
        if self.eps_gap.shape != self.bellman_err.shape or self.eps_gap.ndim != 2:
            raise DomainError("error arrays must be matching 2-D (rows x actions)")
        if self.state_ids.shape != (self.eps_gap.shape[0],):
            raise DomainError("state_ids must label the rows")
        for name in ("eps_gap", "bellman_err", "state_ids"):
            getattr(self, name).setflags(write=False)

    def by_state(self, state: int) -> tuple[np.ndarray, np.ndarray]:
        """(eps_gap row, bellman_err row) for one state."""
        idx = np.flatnonzero(self.state_ids == state)
        if idx.size != 1:
            raise DomainError(f"state {state} not present in this snapshot")
        return self.eps_gap[idx[0]], self.bellman_err[idx[0]]

    @property
    def eps_gap_flat(self) -> np.ndarray:
        return self.eps_gap.reshape(-1)

    @property
    def bellman_err_flat(self) -> np.ndarray:
        return self.bellman_err.reshape(-1)


def snapshot_errors(mdp: TabularMdp, q: QTable, qstar: QTable) -> ErrorSnapshot:
    """Full-table optimality gap and Bellman error for the iterate ``q``."""
    _check_shapes(mdp, q)
    _check_shapes(mdp, qstar)
    target = mdp.reward + mdp.gamma * successor_max(mdp, q.values)
    return ErrorSnapshot(
        t=q.iteration,
        eps_gap=q.values - qstar.values,
        bellman_err=target - q.values,
        state_ids=np.arange(mdp.n_states),
    )


# ---------------------------------------------------------------------------
# Distributional prediction of the optimality gap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GumbelPrediction:
    """Predicted Gumbel parameters of the optimality gap at iteration t.

    The gap at (s, a) is predicted as
        Gumbel(c_t[s, a] - gamma * max_a' Q*(T(s, a), a'),  beta_t).
    ``degenerate`` marks the homogeneous-reward shortcut where every state
    shares the same reward multiset and c_t collapses to a single constant.
    """

    t: int
    c_t: np.ndarray
    beta_t: float
    degenerate: bool

    def __post_init__(self):
        self.c_t.setflags(write=False)


def _same_reward_multiset(reward: np.ndarray) -> bool:
    sorted_rows = np.sort(reward, axis=1)
    return bool(np.all(sorted_rows == sorted_rows[0]))


def predict_gumbel(mdp: TabularMdp, t: int, c1: float, beta1: float) -> GumbelPrediction:
    """Location/scale recursion for the optimality-gap law at iteration t.

    Base case: c_1 is constant and beta_1 > 0 comes from the initialization
    (e.g. gamma * eta for a Gumbel(lambda, eta) init, via the max rule).  The
    scale contracts exactly: beta_t = gamma^(t-1) * beta_1.  The location
    recursion per step is
        c_k(s, a) = gamma * beta_{k-1} * logsumexp_i((r(s', a_i) + c_{k-1}(s', a_i)) / beta_{k-1})
    with s' = T(s, a); when c_{k-1} is constant this telescopes to
        c_k = gamma * (c_{k-1} + beta_{k-1} * logsumexp_i(r_i / beta_{k-1})),
    so the homogeneous shortcut and the general step are the same formula.
    Cells whose successor is terminal have no Gumbel law (their gap collapses
    to an exact constant) and are reported as NaN in the general path.
    """
    from scipy.special import logsumexp

    if t < 1:
        raise DomainError(f"iteration index must be >= 1, got {t}")
    if not beta1 > 0:
        raise DomainError(f"beta1 must be positive, got {beta1}")
    beta_t = beta1 * mdp.gamma ** (t - 1)
    degenerate = _same_reward_multiset(mdp.reward)
    if degenerate:
        c = c1
        beta = beta1
        row = mdp.reward[0]
        for _ in range(2, t + 1):
            c = mdp.gamma * (c + beta * float(logsumexp(row / beta)))
            beta *= mdp.gamma
        c_t = np.full((mdp.n_states, mdp.n_actions), c)
        return GumbelPrediction(t=t, c_t=c_t, beta_t=beta_t, degenerate=True)

    c_prev = np.full((mdp.n_states, mdp.n_actions), float(c1))
    beta = beta1
    safe = np.clip(mdp.transition, 0, mdp.n_states - 1)
    for _ in range(2, t + 1):
        per_state = mdp.gamma * beta * logsumexp((mdp.reward + c_prev) / beta, axis=1)
        c_prev = np.where(mdp.transition == TERMINAL, np.nan, per_state[safe])
        beta *= mdp.gamma
    return GumbelPrediction(t=t, c_t=c_prev, beta_t=beta_t, degenerate=False)


# ---------------------------------------------------------------------------
# Built-in environments
# ---------------------------------------------------------------------------

def make_example1(n_states: int = 5, n_actions: int = 5000, gamma: float = 0.99) -> TabularMdp:
    """Five-state feed-forward benchmark: every action at state i moves to
    state i+1 (the last state ends the episode) with constant reward 1."""
    transition = np.empty((n_states, n_actions), dtype=np.int64)
    for s in range(n_states):
        transition[s, :] = s + 1 if s + 1 < n_states else TERMINAL
    reward = np.ones((n_states, n_actions))
    return TabularMdp(n_states, n_actions, transition, reward, gamma)


FORWARD, STAY = 0, 1


def make_chain(n_states: int, gamma: float = 0.99) -> TabularMdp:
    """Chain with two actions: FORWARD earns 1 and advances (the last state
    terminates); STAY earns 0 and self-loops.  Optimal policy: FORWARD."""
    if n_states < 2:
        raise DomainError("chain needs at least 2 states")
    transition = np.empty((n_states, 2), dtype=np.int64)
    reward = np.zeros((n_states, 2))
    for s in range(n_states):
        transition[s, FORWARD] = s + 1 if s + 1 < n_states else TERMINAL
        transition[s, STAY] = s
        reward[s, FORWARD] = 1.0
    return TabularMdp(n_states, 2, transition, reward, gamma)


def make_random_dag(
    n_states: int,
    n_actions: int,
    seed: int,
    gamma: float = 0.99,
    reward_low: float = 0.05,
    reward_high: float = 1.0,
) -> TabularMdp:
    """Random episodic DAG: T(s, a) is uniform over later states and TERMINAL,
    so every trajectory reaches the end in at most n_states steps."""
    if n_states < 2 or n_actions < 1:
        raise DomainError("random DAG needs >= 2 states and >= 1 action")
    u = uniform_open(seed, 2 * n_states * n_actions)
    pick = u[: n_states * n_actions].reshape(n_states, n_actions)
    rew_u = u[n_states * n_actions :].reshape(n_states, n_actions)
    transition = np.empty((n_states, n_actions), dtype=np.int64)
    for s in range(n_states):
        # successors drawn from {s+1, ..., n_states-1, TERMINAL}
        n_choices = n_states - s
        idx = np.minimum((pick[s] * n_choices).astype(np.int64), n_choices - 1)
        succ = s + 1 + idx
        transition[s] = np.where(succ >= n_states, TERMINAL, succ)
    reward = reward_low + (reward_high - reward_low) * rew_u
    return TabularMdp(n_states, n_actions, transition, reward, gamma)


# ---------------------------------------------------------------------------
# Independent-successor error rows for the five-state benchmark
# ---------------------------------------------------------------------------

def example1_row_errors(
    t: int,
    seed: int,
    init: DistSpec | None = None,
    n_states: int = 5,
    n_actions: int = 5000,
    gamma: float = 0.99,
) -> ErrorSnapshot:
    """First-state error rows of the five-state benchmark at iteration t,
    under per-pair independent successors.

    With the literal shared successor row, one synchronous update makes every
    row of the table constant (a single max feeds all 5000 cells), so the
    per-action error distribution collapses immediately.  Reading the
    deterministic transition map as giving every (state, action) pair its own
    independent copy of the downstream state keeps the per-cell randomness the
    distributional recursion describes.  Unrolled to depth t, a first-state
    cell then sees the max of n_actions^t independent initial draws, with the
    discounted rewards telescoping against Q*:

        gap_t = gamma^t * (max of n_actions^t init draws - max_a Q*(s_t, a))

    (zero once t reaches the horizon).  The Bellman error of a cell is the
    next iterate's gap minus the cell's own gap; the target-side max is drawn
    independently of the cell's gap, which is exactly the same-iteration
    independence idealization the distributional analysis makes.

    Sampling the max of n_actions^t draws is O(1) per cell through the
    F^{-1}(u^(1/n)) trick, so iterations beyond the literal table's collapse
    horizon remain cheap and exact.
    """
    if t < 1:
        raise DomainError(f"iteration index must be >= 1, got {t}")
    if init is None:
        init = DistSpec(Family.NORMAL, 0.0, 1.0)
    if init.family not in (Family.GUMBEL, Family.NORMAL):
        raise DomainError("init must be Gumbel or Normal")

    def qstar_value(state_idx: int) -> float:
        # max_a Q*(s_idx, a) on the benchmark: sum_{k=0}^{n_states-1-idx} gamma^k
        steps = n_states - state_idx
        return (1.0 - gamma**steps) / (1.0 - gamma)

    def gap_row(level: int, stream: int) -> np.ndarray:
        if level >= n_states:
            return np.zeros(n_actions)
        u = uniform_open(seed, n_actions, stream=stream)
        n_total = float(n_actions) ** level
        if init.family is Family.NORMAL:
            max_draw = init.location + init.scale * normal_max_quantile(u, n_total)
        else:
            # max-stability: max of m i.i.d. Gumbel(l, e) ~ Gumbel(l + e*log(m), e)
            max_draw = init.location + init.scale * (np.log(n_total) - np.log(-np.log(u)))
        return gamma**level * (max_draw - qstar_value(level))

    eps_gap = gap_row(t, stream=0)
    bellman_err = gap_row(t + 1, stream=1) - eps_gap
    return ErrorSnapshot(
        t=t,
        eps_gap=eps_gap.reshape(1, -1),
        bellman_err=bellman_err.reshape(1, -1),
        state_ids=np.array([0]),
    )
