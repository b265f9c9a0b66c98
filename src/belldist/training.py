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

from .errors import DomainError, TrainingError
from .gof import ks_statistic
from .distributions import Family, SampleBatch, fit_mle
from .losses import LossConfig, l_loss_grad
from .mdp import TERMINAL, TabularMdp, successor_max

LOSS_MSE = "mse"
LOSS_LLOSS = "lloss"


@dataclass(frozen=True)
class TrainConfig:
    loss: str = LOSS_MSE
    sigma: float = 1.0
    batch_size: int = 256
    lr: float = 3e-4
    tau: float = 0.005
    reward_scale: float = 1.0
    epochs: int = 200
    replay_capacity: int = 10_000
    early_stop_patience: int = 50
    approximator: str = "tabular"  # "tabular" | "mlp"
    seed: int = 0

    # fixed schedule, not fields: environment steps and gradient updates per
    # epoch, the ends of the linear epsilon-greedy decay, the MLP's width
    steps_per_epoch: ClassVar[int] = 64
    updates_per_epoch: ClassVar[int] = 16
    epsilon_start: ClassVar[float] = 1.0
    epsilon_final: ClassVar[float] = 0.05
    hidden: ClassVar[int] = 32

    def __post_init__(self):
        if self.loss not in (LOSS_MSE, LOSS_LLOSS):
            raise DomainError(f"loss must be '{LOSS_MSE}' or '{LOSS_LLOSS}'")
        if self.batch_size < 1:
            raise DomainError("batch_size must be >= 1")
        if not self.lr > 0:
            raise DomainError("lr must be positive")
        if not 0.0 < self.tau <= 1.0:
            raise DomainError("tau must lie in (0, 1]")
        if not self.sigma > 0:
            raise DomainError("sigma must be positive")
        if not self.reward_scale > 0:
            raise DomainError("reward_scale must be positive")
        if self.approximator not in ("tabular", "mlp"):
            raise DomainError("approximator must be 'tabular' or 'mlp'")
        for name in ("epochs", "replay_capacity", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1, got {getattr(self, name)}")


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

    def equals(self, other: "TrainLog") -> bool:
        return (
            np.array_equal(self.rewards, other.rewards)
            and len(self.bellman_errors) == len(other.bellman_errors)
            and all(
                np.array_equal(a, b)
                for a, b in zip(self.bellman_errors, other.bellman_errors)
            )
            and np.array_equal(self.final_q, other.final_q)
        )


# ---------------------------------------------------------------------------
# Q-function approximators
# ---------------------------------------------------------------------------

class QFunction:
    """A parameterisation of the (states x actions) Q table.

    Parameters live in one list, so copying, Polyak mixing and the descent
    step are shared; each approximator defines ``table()`` and ``grads(dq)``,
    the gradient of ``sum(dq * table())`` for each parameter.
    """

    params: list[np.ndarray]

    def descend(self, dq: np.ndarray, lr: float) -> None:
        for p, g in zip(self.params, self.grads(dq)):
            p -= lr * g

    def mix_from(self, other: "QFunction", tau: float) -> None:
        self.params = [(1.0 - tau) * p + tau * q for p, q in zip(self.params, other.params)]

    def clone(self) -> "QFunction":
        out = object.__new__(type(self))
        out.params = [p.copy() for p in self.params]
        return out


class TabularQ(QFunction):
    def __init__(self, n_states: int, n_actions: int, rng: np.random.Generator):
        self.params = [0.01 * rng.standard_normal((n_states, n_actions))]

    def table(self) -> np.ndarray:
        """The live parameter array, not a copy."""
        return self.params[0]

    def grads(self, dq: np.ndarray) -> list[np.ndarray]:
        return [dq]


class MlpQ(QFunction):
    """One-hot state -> hidden tanh layer -> linear per-action outputs.

    With a one-hot input the pre-activation of state s is row s of w1 plus b1,
    so the forward and backward passes run over the S rows of w1.
    """

    def __init__(self, n_states: int, n_actions: int, hidden: int, rng: np.random.Generator):
        self.params = [
            rng.standard_normal((n_states, hidden)) / math.sqrt(n_states),
            np.zeros(hidden),
            rng.standard_normal((hidden, n_actions)) / math.sqrt(hidden),
            np.zeros(n_actions),
        ]

    def table(self) -> np.ndarray:
        w1, b1, w2, b2 = self.params
        return np.tanh(w1 + b1) @ w2 + b2

    def grads(self, dq: np.ndarray) -> list[np.ndarray]:
        w1, b1, w2, _ = self.params
        h = np.tanh(w1 + b1)
        dpre = (dq @ w2.T) * (1.0 - h * h)
        # the one-hot input makes the w1 gradient dpre itself
        return [dpre, dpre.sum(axis=0), h.T @ dq, dq.sum(axis=0)]


def make_qfunc(env: TabularMdp, cfg: TrainConfig, rng: np.random.Generator) -> QFunction:
    if cfg.approximator == "tabular":
        return TabularQ(env.n_states, env.n_actions, rng)
    return MlpQ(env.n_states, env.n_actions, cfg.hidden, rng)


def table_grad(cells, grad_out, shape: tuple[int, int]) -> np.ndarray:
    """Fold per-sample d(loss)/dQ at flat cells ``s * A + a`` into an (S, A) table.

    Each cell sums its samples in batch order, exactly as ``np.add.at`` does.
    """
    return np.bincount(cells, weights=grad_out, minlength=shape[0] * shape[1]).reshape(shape)


def td_errors(qnet: QFunction, target_net: QFunction, env: TabularMdp, cells,
              cfg: TrainConfig) -> np.ndarray:
    """Target-minus-estimate residuals at flat cells ``s * A + a`` of ``env``.

    The MDP is deterministic, so the reward and successor of a cell are read
    from ``env``; ``cfg.reward_scale`` scales the reward and ``env.gamma``
    discounts.  ``successor_max`` applies the terminal rule to the batch's
    successors, exactly as ``bellman_step`` applies it to the whole table.
    """
    next_max = successor_max(env.transition.reshape(-1)[cells], target_net.table())
    targets = env.reward.reshape(-1)[cells] * cfg.reward_scale + env.gamma * next_max
    return targets - qnet.table().reshape(-1)[cells]


def loss_output_grad(errors: np.ndarray, cfg: TrainConfig) -> np.ndarray:
    """d(loss)/d(prediction) per batch element; errors are target - estimate."""
    if cfg.loss == LOSS_MSE:
        return -errors / errors.size
    return -l_loss_grad(errors, LossConfig(sigma=cfg.sigma))


def greedy_return(env: TabularMdp, q_table: np.ndarray, start: int = 0) -> float:
    """Undiscounted return of the greedy policy from ``start``, over at most
    4 * n_states steps (the episode cap of training)."""
    s, total = start, 0.0
    for _ in range(4 * env.n_states):
        a = int(np.argmax(q_table[s]))
        total += env.reward[s, a]
        nxt = int(env.transition[s, a])
        if nxt == TERMINAL:
            break
        s = nxt
    return total


def run_training(env: TabularMdp, cfg: TrainConfig) -> TrainLog:
    """Epsilon-greedy replay Q-learning; deterministic given cfg.seed."""
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    qnet = make_qfunc(env, cfg, rng)
    target_net = qnet.clone()
    # replay ring buffer of visited flat cells s * A + a: the MDP is
    # deterministic, so a cell fixes its reward, successor and termination
    capacity = cfg.replay_capacity
    replay = np.zeros(capacity, dtype=np.int64)
    written = 0
    cap = 4 * env.n_states  # steps before an episode restarts from state 0
    q_shape = (env.n_states, env.n_actions)

    state = 0
    episode_steps = 0
    rewards_log: list[float] = []
    errors_log: list[np.ndarray] = []
    best = -math.inf
    stale = 0
    last_good = None

    # a diverging net overflows in its matmuls before the finite check on the
    # TD errors sees it; that check, not a numpy warning, reports the divergence
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            frac = epoch / max(cfg.epochs - 1, 1)
            epsilon = cfg.epsilon_start + (cfg.epsilon_final - cfg.epsilon_start) * frac
            # the net only changes in the update phase, so one greedy table per epoch
            greedy = np.argmax(qnet.table(), axis=1)

            for _ in range(cfg.steps_per_epoch):
                if rng.random() < epsilon:
                    action = int(rng.integers(env.n_actions))
                else:
                    action = int(greedy[state])
                nxt = int(env.transition[state, action])
                replay[written % capacity] = state * env.n_actions + action
                written += 1
                episode_steps += 1
                if nxt == TERMINAL or episode_steps >= cap:
                    state, episode_steps = 0, 0
                else:
                    state = nxt

            epoch_errors = np.zeros(0)
            fill = min(written, capacity)
            if fill >= cfg.batch_size:
                for _ in range(cfg.updates_per_epoch):
                    cells = replay[rng.integers(fill, size=cfg.batch_size)]
                    errs = td_errors(qnet, target_net, env, cells, cfg)
                    if not np.all(np.isfinite(errs)):
                        raise TrainingError("training diverged (non-finite errors)", last_good)
                    grad_out = loss_output_grad(errs, cfg)
                    qnet.descend(table_grad(cells, grad_out, q_shape), cfg.lr)
                    target_net.mix_from(qnet, cfg.tau)
                    epoch_errors = errs

            table = qnet.table().copy()  # a tabular table() is the live array
            ret = greedy_return(env, table)
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
