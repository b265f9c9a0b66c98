"""Deterministic finite-MDP Q-iteration with error tracking.

States are 0-based; a transition entry of ``TERMINAL`` (-1) means the episode
ends and the successor contributes exactly 0 to the Bellman target.  Two error
arrays are tracked per iterate: the optimality gap  Q_hat - Q*  and the
Bellman error  [r + gamma * max_a' Q_hat(s', a')] - Q_hat(s, a)  (target minus
estimate).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    DistSpec,
    Family,
    _logsumexp,
    normal_max_quantile,
    quantile,
    uniform_open,
)
from .errors import (ConvergenceError, DomainError, _as_real, _check_count, _check_elements,
                     _check_positive, _real_array, _shown)

TERMINAL = -1

GAMMA = 0.99  # discount of every built-in environment
EXAMPLE1_STATES, EXAMPLE1_ACTIONS = 5, 5000  # shape of the five-state benchmark
_DAG_REWARD_LOW, _DAG_REWARD_HIGH = 0.05, 1.0  # random-DAG rewards are uniform on this range
_MAX_SWEEPS = 1_000_000  # value-iteration budget of solve_qstar


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP with a deterministic transition function.

    transition[s, a] is the unique successor state (or TERMINAL); reward[s, a]
    is the immediate reward (both kept as read-only copies); gamma is the
    discount in (0, 1).
    """

    n_states: int
    n_actions: int
    transition: np.ndarray
    reward: np.ndarray
    gamma: float

    def __post_init__(self):
        _check_count(self.n_states, "n_states", 1)
        _check_count(self.n_actions, "n_actions", 1)
        try:
            trans = np.asarray(self.transition)
        except (TypeError, ValueError):  # ragged nesting has no shape
            trans = None
        rew = _real_array(self.reward, "reward", ndim=2, frozen=True, finite=True)
        shape = (self.n_states, self.n_actions)
        if trans is None or trans.shape != shape or rew.shape != shape:
            raise DomainError(f"transition/reward must have shape {shape}")
        # integers only: an int64 cast would truncate 0.5 to state 0
        if trans.dtype.kind not in "iu" or not np.all(
                (trans == TERMINAL) | ((trans >= 0) & (trans < self.n_states))):
            raise DomainError("transition entries must be integers: valid states or TERMINAL")
        trans = trans.astype(np.int64)
        object.__setattr__(self, "gamma", _check_positive(self.gamma, "gamma", 1.0))
        trans.setflags(write=False)
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "reward", rew)

    @classmethod
    def from_json(cls, text: str) -> "TabularMdp":
        try:
            obj = json.loads(text)
            n_states, n_actions, transitions = obj["n_states"], obj["n_actions"], obj["transitions"]
            rewards, gamma = obj["rewards"], obj["gamma"]
            # JSON integers only (a bool is no count): int() and the int64 cast
            # would turn 2.7, "2" and 1.9 into 2, 2 and 1 without a word
            ints = (n_states, n_actions, *(v for row in transitions for v in row))
            if not all(type(v) is int for v in ints):
                raise TypeError("a count or transition entry is not a JSON integer")
            # JSON numbers only: float() and the float cast would turn "0.9",
            # "1.5" and true into 0.9, 1.5 and 1.0
            nums = (gamma, *(v for row in rewards for v in row))
            if not all(type(v) in (int, float) for v in nums):
                raise TypeError("gamma or a reward entry is not a JSON number")
            fields = dict(
                n_states=n_states,
                n_actions=n_actions,
                transition=np.array(transitions, dtype=np.int64),
                reward=np.array(rewards, dtype=float),
                gamma=float(gamma),
            )
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise DomainError(
                "MDP JSON needs integer n_states, n_actions and transitions, and numeric"
                f" rewards and gamma ({type(exc).__name__}: {exc})"
            ) from exc
        return cls(**fields)


@dataclass(frozen=True)
class QTable:
    values: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        vals = _real_array(self.values, "QTable values", ndim=2, frozen=True)
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


def successor_max(successors: np.ndarray, values: np.ndarray,
                  row_max: np.ndarray | None = None) -> np.ndarray:
    """max_a' Q(s', a') for each successor s' in ``successors`` (the whole
    ``mdp.transition`` or entries gathered from it); TERMINAL contributes 0.

    TERMINAL is -1, so it indexes the 0 left after the per-state maxima.
    ``row_max``, a buffer of S + 1 entries whose last entry is 0, takes the
    maxima in place of a fresh zeroed array; a caller that runs this once per
    training update keeps one.
    """
    if row_max is None:
        row_max = np.zeros(values.shape[0] + 1)
    values.max(axis=1, out=row_max[:-1])
    return row_max[successors]


def bellman_step(mdp: TabularMdp, q: QTable) -> QTable:
    """One synchronous hard-max update: Q' = r + gamma * max_a' Q(s', a');
    an update that overflows float64 raises DomainError."""
    _check_shapes(mdp, q)
    try:
        with np.errstate(over="raise"):
            new_values = mdp.reward + mdp.gamma * successor_max(mdp.transition, q.values)
    except FloatingPointError:
        raise DomainError("bellman_step overflows float64") from None
    return QTable(values=new_values, iteration=q.iteration + 1)


def solve_qstar(mdp: TabularMdp) -> QTable:
    """Fixed point of bellman_step to sup-norm 1e-12."""
    q = QTable(values=np.zeros((mdp.n_states, mdp.n_actions)))
    for _ in range(_MAX_SWEEPS):
        nxt = bellman_step(mdp, q)
        if float(np.max(np.abs(nxt.values - q.values))) < 1e-12:
            return QTable(values=nxt.values, iteration=0)
        q = nxt
    raise ConvergenceError(f"value iteration did not reach 1e-12 in {_MAX_SWEEPS} steps")


@dataclass(frozen=True, repr=False)
class ErrorSnapshot:
    """Per-cell error arrays at iteration t; row i belongs to state i."""

    t: int
    eps_gap: np.ndarray  # (rows, n_actions)
    bellman_err: np.ndarray  # (rows, n_actions)

    def __post_init__(self):
        if self.eps_gap.shape != self.bellman_err.shape or self.eps_gap.ndim != 2:
            raise DomainError("error arrays must be matching 2-D (rows x actions)")
        self.eps_gap.setflags(write=False)
        self.bellman_err.setflags(write=False)

    def __repr__(self) -> str:
        # t may be an int too long for Python to print
        return (f"ErrorSnapshot(t={_shown(self.t)}, eps_gap={self.eps_gap!r}, "
                f"bellman_err={self.bellman_err!r})")

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
    return ErrorSnapshot(
        t=q.iteration,
        eps_gap=q.values - qstar.values,
        bellman_err=bellman_step(mdp, q).values - q.values,
    )


# ---------------------------------------------------------------------------
# Distributional prediction of the optimality gap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GumbelPrediction:
    """Predicted Gumbel parameters of the optimality gap at iteration t.

    The gap at (s, a) is predicted as
        Gumbel(c_t[s, a] - gamma * max_a' Q*(T(s, a), a'),  beta_t).
    c_t is NaN on cells whose gap has no Gumbel law at iteration t.
    """

    t: int
    c_t: np.ndarray
    beta_t: float

    def __post_init__(self):
        self.c_t.setflags(write=False)


def predict_gumbel(mdp: TabularMdp, t: int, c1: float, beta1: float) -> GumbelPrediction:
    """Location/scale recursion for the optimality-gap law at iteration t.

    Base case: c_1 = c1 on every cell whose successor is a state, and beta_1 =
    beta1 > 0, both from the initialization (e.g. gamma * log(n) and gamma *
    eta for a Gumbel(lambda, eta) init over n actions, via the max rule).  The
    scale contracts exactly: beta_t = gamma^(t-1) * beta_1.  Each later step is
        c_k(s, a) = gamma * beta_{k-1} * logsumexp_i((r(s', a_i) + c_{k-1}(s', a_i)) / beta_{k-1})
    with s' = T(s, a); on rows where c_{k-1} is constant this telescopes to
        c_k = gamma * (c_{k-1} + beta_{k-1} * logsumexp_i(r(s', a_i) / beta_{k-1})).
    A cell whose successor is terminal holds exactly Q_t = r from t = 1 on and
    has no Gumbel law, so its c_t is NaN; at t >= 2 a cell is also NaN when
    any cell of its successor's row was NaN at t - 1.  Once every cell is
    NaN no later step can change that, and the recursion stops.  c1 must be
    finite and beta1 finite and positive; a beta_t that underflows to 0, or a
    step whose r + c_{k-1}, (r + c_{k-1}) / beta_{k-1} or c_k overflows
    float64, raises DomainError.
    """
    _check_count(t, "iteration index", 1)
    if not math.isfinite(_as_real(c1, "c1")):
        raise DomainError(f"c1 must be finite, got {c1}")
    beta1 = _check_positive(beta1, "beta1")
    # gamma < 1 makes the power 0 long before the cap, which keeps t - 1 a float
    beta_t = beta1 * mdp.gamma ** min(t - 1, 1 << 1023)
    if beta_t == 0.0:
        raise DomainError(f"beta_t = beta1 * gamma**(t - 1) underflows float64 at t = {_shown(t)}")
    terminal = mdp.transition == TERMINAL
    c_prev = np.where(terminal, np.nan, float(c1))
    beta = beta1
    try:
        with np.errstate(over="raise"):
            for _ in range(2, t + 1):
                if np.isnan(c_prev).all():
                    break  # NaN everywhere stays NaN everywhere; beta_t is already known
                per_state = mdp.gamma * beta * _logsumexp(mdp.reward + c_prev, beta)
                c_prev = np.where(terminal, np.nan, per_state[mdp.transition])
                beta *= mdp.gamma
    except FloatingPointError:
        raise DomainError("a step of the location recursion overflows float64") from None
    return GumbelPrediction(t=t, c_t=c_prev, beta_t=beta_t)


# ---------------------------------------------------------------------------
# Built-in environments
# ---------------------------------------------------------------------------

def make_example1(n_actions: int = EXAMPLE1_ACTIONS) -> TabularMdp:
    """Five-state feed-forward benchmark: every action at state i moves to
    state i+1 (the last state ends the episode) with constant reward 1."""
    _check_count(n_actions, "n_actions", 1)
    _check_elements(EXAMPLE1_STATES * n_actions, "n_actions")
    n_states = EXAMPLE1_STATES
    transition = np.empty((n_states, n_actions), dtype=np.int64)
    for s in range(n_states):
        transition[s, :] = s + 1 if s + 1 < n_states else TERMINAL
    reward = np.ones((n_states, n_actions))
    return TabularMdp(n_states, n_actions, transition, reward, GAMMA)


FORWARD, STAY = 0, 1


def make_chain(n_states: int) -> TabularMdp:
    """Chain with two actions: FORWARD earns 1 and advances (the last state
    terminates); STAY earns 0 and self-loops.  Optimal policy: FORWARD."""
    _check_count(n_states, "n_states", 2)
    _check_elements(2 * n_states, "n_states")
    transition = np.empty((n_states, 2), dtype=np.int64)
    reward = np.zeros((n_states, 2))
    for s in range(n_states):
        transition[s, FORWARD] = s + 1 if s + 1 < n_states else TERMINAL
        transition[s, STAY] = s
        reward[s, FORWARD] = 1.0
    return TabularMdp(n_states, 2, transition, reward, GAMMA)


def make_random_dag(n_states: int, n_actions: int, seed: int) -> TabularMdp:
    """Random episodic DAG: T(s, a) is uniform over later states and TERMINAL,
    so every trajectory reaches the end in at most n_states steps."""
    _check_count(n_states, "n_states", 2)
    _check_count(n_actions, "n_actions", 1)
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
    reward = _DAG_REWARD_LOW + (_DAG_REWARD_HIGH - _DAG_REWARD_LOW) * rew_u
    return TabularMdp(n_states, n_actions, transition, reward, GAMMA)


# ---------------------------------------------------------------------------
# Independent-successor error rows for the five-state benchmark
# ---------------------------------------------------------------------------

def example1_row_errors(t: int, seed: int, init: DistSpec | None = None) -> ErrorSnapshot:
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
    _check_count(t, "iteration index", 1)
    if init is None:
        init = DistSpec(Family.NORMAL, 0.0, 1.0)
    if init.family not in (Family.GUMBEL, Family.NORMAL):
        raise DomainError("init must be Gumbel or Normal")
    n_states, n_actions, gamma = EXAMPLE1_STATES, EXAMPLE1_ACTIONS, GAMMA

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
    )
