"""Desk-scale Q-learning harness with swappable squared-error / Logistic loss.

One training run is single-threaded and fully determined by its seed: every
random draw (exploration, replay sampling, network init) comes from one
Philox stream consumed sequentially.  The Q-function is either a plain table
or a two-layer perceptron (one-hot state -> tanh hidden -> per-action heads).
Both expose their full (states x actions) Q table; the training loop folds a
batch's loss gradient into one table of the same shape, and each approximator
backpropagates that table by hand, so the gradient path can be checked by
finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import DomainError, TrainingError, _check_count, _check_positive
from .gof import ks_statistic
from .distributions import Family, SampleBatch, _check_seed, fit_mle
from .losses import _l_loss_grad_kernel, _l_loss_grad_scale
from .mdp import TERMINAL, TabularMdp, successor_max

LOSS_MSE = "mse"
LOSS_LLOSS = "lloss"

# an episode restarts from state 0 after this many steps per state
_EPISODE_STEPS_PER_STATE = 4


@dataclass(frozen=True)
class TrainConfig:
    loss: str = LOSS_MSE
    sigma: float = 1.0
    batch_size: int = 256
    lr: float = 3e-4
    tau: float = 0.005
    reward_scale: float = 1.0
    epochs: int = 200
    early_stop_patience: int = 50
    approximator: str = "tabular"  # "tabular" | "mlp"
    seed: int = 0

    # fixed schedule, not fields: environment steps and gradient updates per
    # epoch, the replay ring's size, the ends of the linear epsilon-greedy
    # decay, the MLP's width
    steps_per_epoch: ClassVar[int] = 64
    updates_per_epoch: ClassVar[int] = 16
    replay_capacity: ClassVar[int] = 10_000
    epsilon_start: ClassVar[float] = 1.0
    epsilon_final: ClassVar[float] = 0.05
    hidden: ClassVar[int] = 32

    def __post_init__(self):
        if self.loss not in (LOSS_MSE, LOSS_LLOSS):
            raise DomainError(f"loss must be '{LOSS_MSE}' or '{LOSS_LLOSS}'")
        # counts: a float one fails deep inside numpy (batch_size and epochs
        # set array shapes and loop bounds) or, as a patience, runs silently
        for name in ("batch_size", "epochs", "early_stop_patience"):
            _check_count(getattr(self, name), name, 1)
        for name in ("lr", "sigma", "reward_scale"):
            _check_positive(getattr(self, name), name)
        _check_positive(self.tau, "tau", 1.0, closed=True)
        _check_seed(self.seed)
        if self.approximator not in ("tabular", "mlp"):
            raise DomainError("approximator must be 'tabular' or 'mlp'")
        if self.batch_size > self.replay_capacity:
            # the replay never holds a full batch, so no gradient update runs
            raise DomainError(f"batch_size {self.batch_size} exceeds replay_capacity "
                              f"{self.replay_capacity}")


@dataclass
class TrainLog:
    rewards: np.ndarray  # greedy return after each epoch run
    bellman_errors: list  # one array per epoch
    final_q: np.ndarray

    @property
    def epochs_run(self) -> int:
        return len(self.rewards)

    @property
    def final_policy(self) -> np.ndarray:
        return np.argmax(self.final_q, axis=1)


# ---------------------------------------------------------------------------
# Q-function approximators
# ---------------------------------------------------------------------------

def _split(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of ``flat``, one per shape."""
    views = []
    start = 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


class QFunction:
    """A parameterisation of the (states x actions) Q table.

    Parameters live in one flat float64 vector ``theta``, and ``params`` lists
    the named parameter arrays as views into it, so copying, Polyak mixing and
    the descent step are whole-vector operations shared by every approximator.
    Each approximator defines ``forward()``, which returns the Q table and what
    the backward pass reuses from it, and ``grad(dq, cache)``, the gradient of
    ``sum(dq * table)`` as one flat vector laid out like ``theta``.
    """

    theta: np.ndarray
    params: list[np.ndarray]

    def _bind(self, theta: np.ndarray, shapes) -> None:
        self.theta = theta
        # descend and mix_from scale a whole vector into this buffer: a fresh
        # temporary of that size on every update page-faults on large tables
        self._scaled = np.empty_like(theta)
        self.params = _split(theta, shapes)

    def table(self) -> np.ndarray:
        return self.forward()[0]

    def descend(self, g: np.ndarray, lr: float) -> None:
        self.theta -= np.multiply(lr, g, out=self._scaled)

    def mix_from(self, other: "QFunction", tau: float) -> None:
        # per element the same two products and sum as (1 - tau) * p + tau * q
        self.theta *= 1.0 - tau
        self.theta += np.multiply(tau, other.theta, out=self._scaled)

    def clone(self) -> "QFunction":
        out = object.__new__(type(self))
        out._bind(self.theta.copy(), [p.shape for p in self.params])
        return out


class TabularQ(QFunction):
    def __init__(self, n_states: int, n_actions: int, rng: np.random.Generator):
        self._bind(0.01 * rng.standard_normal(n_states * n_actions), [(n_states, n_actions)])

    def forward(self) -> tuple[np.ndarray, None]:
        """The live parameter array, not a copy."""
        return self.params[0], None

    def grad(self, dq: np.ndarray, cache: None) -> np.ndarray:
        return dq.reshape(-1)


class MlpQ(QFunction):
    """One-hot state -> hidden tanh layer -> linear per-action outputs.

    With a one-hot input the pre-activation of state s is row s of w1 plus b1,
    so the forward and backward passes run over the S rows of w1.
    """

    def __init__(self, n_states: int, n_actions: int, hidden: int, rng: np.random.Generator):
        w1 = rng.standard_normal((n_states, hidden)) / math.sqrt(n_states)
        w2 = rng.standard_normal((hidden, n_actions)) / math.sqrt(hidden)
        theta = np.concatenate((w1.ravel(), np.zeros(hidden), w2.ravel(), np.zeros(n_actions)))
        self._bind(theta, [w1.shape, (hidden,), w2.shape, (n_actions,)])

    def forward(self) -> tuple[np.ndarray, np.ndarray]:
        """The Q table and the hidden activations ``h`` that ``grad`` reuses."""
        w1, b1, w2, b2 = self.params
        h = np.tanh(w1 + b1)
        return h @ w2 + b2, h

    def _bind(self, theta: np.ndarray, shapes) -> None:
        super()._bind(theta, shapes)
        # grad writes each piece into its view of this buffer, so an update
        # allocates no pieces and concatenates none
        self._grad = np.empty_like(theta)
        self._grad_parts = _split(self._grad, shapes)

    def grad(self, dq: np.ndarray, h: np.ndarray) -> np.ndarray:
        """The flat gradient, in a buffer that the next call overwrites."""
        dpre, db1, dw2, db2 = self._grad_parts
        # the one-hot input makes the w1 gradient dpre itself
        np.matmul(dq, self.params[2].T, out=dpre)
        dpre *= 1.0 - h * h
        dpre.sum(axis=0, out=db1)
        np.matmul(h.T, dq, out=dw2)
        dq.sum(axis=0, out=db2)
        return self._grad


def make_qfunc(env: TabularMdp, cfg: TrainConfig, rng: np.random.Generator) -> QFunction:
    if cfg.approximator == "tabular":
        return TabularQ(env.n_states, env.n_actions, rng)
    return MlpQ(env.n_states, env.n_actions, cfg.hidden, rng)


def greedy_return(env: TabularMdp, policy: np.ndarray) -> float:
    """Undiscounted return of following ``policy`` (one action per state, the
    argmax of a Q table's rows) from state 0, over at most as many steps as
    a training episode."""
    s, total = 0, 0.0
    for _ in range(_EPISODE_STEPS_PER_STATE * env.n_states):
        a = policy[s]
        total += env.reward[s, a]
        nxt = int(env.transition[s, a])
        if nxt == TERMINAL:
            break
        s = nxt
    return total


def make_update(env: TabularMdp, cfg: TrainConfig, qnet: QFunction, target_net: QFunction):
    """The gradient updates of ``run_training``, as a function of a block of
    flat cells ``s * A + a`` with one batch of ``batch_size`` cells per row.

    For each row in turn, ``update(cells, errs)`` writes the batch's TD
    errors into the same row of ``errs``, takes a descent step of ``qnet`` on
    the batch's loss, then a Polyak step of ``target_net`` toward ``qnet``.
    It gathers the whole block's scaled rewards and successors at once; the
    MDP is deterministic, so they fix a cell's target.  The TD error is
    ``rewards + gamma * next_max - Q[cells]``, rounded in that order, where
    ``successor_max`` applies the terminal rule exactly as ``bellman_step``
    does.  The per-sample loss gradient is folded into an (S, A) table by
    ``np.bincount``, which sums each cell's samples in batch order, as
    ``np.add.at`` does.  ``update`` does not look for divergence:
    ``run_training`` checks a whole epoch's errors after its updates.

    The per-run constants and buffers are made here, once: the scaled reward
    table, the target's row maxima (S + 1 entries, the last one 0, so
    ``TERMINAL`` indexes it) and the loss gradient's constants.  The
    gradient's sign is folded into its divisor, -N for the squared error and
    -(N * sigma) for the Logistic loss, which gives the same bits as negating
    the gradient; the Logistic gradient's bound is checked here, not per
    update.
    """
    # scaling before the gather gives the same bits as scaling after it
    reward = env.reward.reshape(-1) * cfg.reward_scale
    successors = env.transition.reshape(-1)
    target_max = np.zeros(env.n_states + 1)
    q_shape = (env.n_states, env.n_actions)
    gamma, lr, tau, sigma = env.gamma, cfg.lr, cfg.tau, cfg.sigma
    grad_out = np.empty(cfg.batch_size)
    if cfg.loss == LOSS_MSE:
        neg_n = -float(cfg.batch_size)

        def output_grad(errs):
            return np.divide(errs, neg_n, out=grad_out)
    else:
        neg_scale = -_l_loss_grad_scale(cfg.batch_size, sigma)

        def output_grad(errs):
            return _l_loss_grad_kernel(errs, sigma, neg_scale, grad_out)

    def update(cells: np.ndarray, errs: np.ndarray) -> None:
        for batch, rewards, succ, out in zip(cells, reward[cells], successors[cells], errs):
            q_table, cache = qnet.forward()
            np.multiply(gamma, successor_max(succ, target_net.table(), target_max), out=out)
            out += rewards
            out -= q_table.reshape(-1)[batch]
            dq = np.bincount(batch, weights=output_grad(out), minlength=reward.size).reshape(q_shape)
            qnet.descend(qnet.grad(dq, cache), lr)
            target_net.mix_from(qnet, tau)

    return update


def run_training(env: TabularMdp, cfg: TrainConfig) -> TrainLog:
    """Epsilon-greedy replay Q-learning; deterministic given cfg.seed.

    Each epoch acts for ``steps_per_epoch`` steps, storing the visited cells
    in a replay ring, then runs ``updates_per_epoch`` updates on batches of
    ``batch_size`` cells.  All of an epoch's batches come from one draw of
    replay indices, which gives the same values, in the same order, as one
    draw per update; ``make_update`` gathers their rewards and successors
    once per epoch.  The updates write their TD errors into one
    (updates_per_epoch, batch_size) block, and one finite check of that block
    after the epoch's updates detects divergence; the last row is the epoch's
    logged error batch.
    """
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    qnet = make_qfunc(env, cfg, rng)
    target_net = qnet.clone()
    # replay ring buffer of visited flat cells s * A + a: the MDP is
    # deterministic, so a cell fixes its reward, successor and termination
    capacity = cfg.replay_capacity
    replay = np.zeros(capacity, dtype=np.int64)
    written = 0
    cap = _EPISODE_STEPS_PER_STATE * env.n_states
    n_actions = env.n_actions
    rows = env.transition.tolist()

    state = 0
    episode_steps = 0
    rewards_log: list[float] = []
    errors_log: list[np.ndarray] = []
    best = -math.inf
    stale = 0
    last_good = None

    # a diverging net overflows in its matmuls, and a huge reward_scale in the
    # reward scaling of make_update, before the finite check on the TD errors
    # sees it; that check, not a numpy warning, reports the divergence
    with np.errstate(over="ignore", invalid="ignore"):
        update = make_update(env, cfg, qnet, target_net)
        errs = np.empty((cfg.updates_per_epoch, cfg.batch_size))
        # the net only changes in the update phase, so the greedy policy of
        # one epoch's end is the next epoch's acting policy
        policy = np.argmax(qnet.table(), axis=1)
        for epoch in range(cfg.epochs):
            frac = epoch / max(cfg.epochs - 1, 1)
            epsilon = cfg.epsilon_start + (cfg.epsilon_final - cfg.epsilon_start) * frac
            greedy = policy.tolist()

            for _ in range(cfg.steps_per_epoch):
                if rng.random() < epsilon:
                    action = int(rng.integers(n_actions))
                else:
                    action = greedy[state]
                nxt = rows[state][action]
                replay[written % capacity] = state * n_actions + action
                written += 1
                episode_steps += 1
                if nxt == TERMINAL or episode_steps >= cap:
                    state, episode_steps = 0, 0
                else:
                    state = nxt

            epoch_errors = np.zeros(0)
            fill = min(written, capacity)
            if fill >= cfg.batch_size:
                # nothing else draws in the update phase, and numpy fills
                # bounded integers in order from the generator's own stream,
                # so row k holds what a separate draw for the k-th update would
                update(replay[rng.integers(fill, size=errs.shape)], errs)
                # the nets have taken their steps on these errors; on divergence
                # they are dropped and only last_good is kept, as it is set
                # only at an epoch's end
                if not np.isfinite(errs).all():
                    raise TrainingError("training diverged (non-finite errors)", last_good)
                # a copy: the next epoch overwrites the block
                epoch_errors = errs[-1].copy()

            table = qnet.table().copy()  # a tabular table() is the live array
            policy = np.argmax(table, axis=1)
            ret = greedy_return(env, policy)
            rewards_log.append(ret)
            errors_log.append(epoch_errors)
            last_good = table

            if ret > best + 1e-12:
                best, stale = ret, 0
            else:
                stale += 1
                if stale >= cfg.early_stop_patience:
                    break

    return TrainLog(rewards=np.array(rewards_log), bellman_errors=errors_log, final_q=last_good)


@dataclass(frozen=True)
class LossComparison:
    per_seed_mse: np.ndarray
    per_seed_lloss: np.ndarray
    mean_mse: float
    mean_lloss: float
    enhancement: float
    logistic_vs_normal_wins: int
    comparisons: int


def compare_losses(env: TabularMdp, base: TrainConfig, seeds) -> LossComparison:
    """Run both loss arms per seed; report returns, the enhancement ratio
    (R_lloss - R_mse)/R_mse, and how often the per-epoch Bellman-error batch
    is fit better (two-sided KS) by a Logistic than by a Normal."""
    seeds = list(seeds)
    if len(seeds) < 2:
        raise DomainError("compare_losses needs at least 2 seeds")
    best_mse, best_ll = [], []
    wins = comps = 0
    for seed in seeds:
        for loss_name, sink in ((LOSS_MSE, best_mse), (LOSS_LLOSS, best_ll)):
            log = run_training(env, replace(base, loss=loss_name, seed=seed))
            sink.append(float(np.max(log.rewards)))
            for errs in log.bellman_errors:
                if errs.size >= 16 and errs.min() < errs.max():
                    batch = SampleBatch(errs)
                    ks_log = ks_statistic(batch, fit_mle(Family.LOGISTIC, batch))
                    ks_norm = ks_statistic(batch, fit_mle(Family.NORMAL, batch))
                    comps += 1
                    wins += int(ks_log <= ks_norm)
    mean_mse = float(np.mean(best_mse))
    mean_ll = float(np.mean(best_ll))
    enhancement = (mean_ll - mean_mse) / mean_mse if mean_mse != 0 else float("nan")
    return LossComparison(
        per_seed_mse=np.array(best_mse),
        per_seed_lloss=np.array(best_ll),
        mean_mse=mean_mse,
        mean_lloss=mean_ll,
        enhancement=enhancement,
        logistic_vs_normal_wins=wins,
        comparisons=comps,
    )
