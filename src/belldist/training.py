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
from .losses import LOSS_LLOSS, LOSS_MSE, LOSS_NAMES, _descent_grad
from .mdp import TERMINAL, TabularMdp, successor_max

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
    approximator: str = "tabular"
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
        if self.loss not in LOSS_NAMES:
            raise DomainError(f"loss must be {' or '.join(map(repr, LOSS_NAMES))}")
        # counts: a float one fails deep inside numpy (batch_size and epochs
        # set array shapes and loop bounds) or, as a patience, runs silently
        for name in ("batch_size", "epochs", "early_stop_patience"):
            _check_count(getattr(self, name), name, 1)
        for name in ("lr", "sigma", "reward_scale"):
            object.__setattr__(self, name, _check_positive(getattr(self, name), name))
        object.__setattr__(self, "tau", _check_positive(self.tau, "tau", 1.0, closed=True))
        _check_seed(self.seed)
        if self.approximator not in APPROXIMATORS:
            raise DomainError(f"approximator must be {' or '.join(map(repr, APPROXIMATORS))}")
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
    ``__init__`` binds ``theta``, its views and the update's buffers for every
    approximator, and ``clone`` calls it on a bare instance.
    """

    def __init__(self, theta: np.ndarray, shapes) -> None:
        self.theta = theta
        self.params = _split(theta, shapes)
        # descend and mix_from scale a whole vector into this buffer: a fresh
        # temporary of that size on every update page-faults on large tables
        self._scaled = np.empty_like(theta)
        # a grad that builds its gradient writes each piece into its view of
        # this buffer, so an update allocates no pieces and concatenates none
        self._grad = np.empty_like(theta)
        self._grad_parts = _split(self._grad, shapes)

    def table(self) -> np.ndarray:
        return self.forward()[0]

    def descend(self, g: np.ndarray, lr: float) -> None:
        self.theta -= np.multiply(lr, g, out=self._scaled)

    def mix_from(self, other: "QFunction", tau: float) -> None:
        # per element the same two products and sum as (1 - tau) * p + tau * q
        self.theta *= 1.0 - tau
        self.theta += np.multiply(tau, other.theta, out=self._scaled)

    def clone(self) -> "QFunction":
        out = type(self).__new__(type(self))
        QFunction.__init__(out, self.theta.copy(), [p.shape for p in self.params])
        return out


class TabularQ(QFunction):
    def __init__(self, n_states: int, n_actions: int, rng: np.random.Generator):
        super().__init__(0.01 * rng.standard_normal(n_states * n_actions), [(n_states, n_actions)])

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

    def __init__(self, n_states: int, n_actions: int, rng: np.random.Generator):
        hidden = TrainConfig.hidden
        w1 = rng.standard_normal((n_states, hidden)) / math.sqrt(n_states)
        w2 = rng.standard_normal((hidden, n_actions)) / math.sqrt(hidden)
        theta = np.concatenate((w1.ravel(), np.zeros(hidden), w2.ravel(), np.zeros(n_actions)))
        super().__init__(theta, [w1.shape, (hidden,), w2.shape, (n_actions,)])

    def forward(self) -> tuple[np.ndarray, np.ndarray]:
        """The Q table and the hidden activations ``h`` that ``grad`` reuses."""
        w1, b1, w2, b2 = self.params
        h = np.tanh(w1 + b1)
        return h @ w2 + b2, h

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


# each approximator by its TrainConfig name
APPROXIMATORS = {"tabular": TabularQ, "mlp": MlpQ}


def make_qfunc(env: TabularMdp, cfg: TrainConfig, rng: np.random.Generator) -> QFunction:
    return APPROXIMATORS[cfg.approximator](env.n_states, env.n_actions, rng)


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
    ``TERMINAL`` indexes it) and the loss's gradient.
    """
    # scaling before the gather gives the same bits as scaling after it
    reward = env.reward.reshape(-1) * cfg.reward_scale
    successors = env.transition.reshape(-1)
    target_max = np.zeros(env.n_states + 1)
    q_shape = (env.n_states, env.n_actions)
    gamma, lr, tau = env.gamma, cfg.lr, cfg.tau
    output_grad = _descent_grad(cfg.loss, cfg.batch_size, cfg.sigma)

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


def _act(rng: np.random.Generator, greedy: list, rows: list, n_actions: int, epsilon: float,
         state: int, episode_steps: int, cap: int, steps: int) -> tuple[list, int, int]:
    """One epoch of epsilon-greedy acting: the ``steps`` visited cells
    ``s * A + a``, and the state and episode length the epoch ends at.

    Each step draws what ``rng.random() < epsilon`` and, when it explores,
    ``rng.integers(n_actions)`` would, decoded from raw Philox words exactly
    as numpy's Generator decodes them.  A uniform is ``(w >> 11) * 2**-53``.
    A bounded integer is Lemire's multiply-shift on Philox's half-word
    stream: the low half of a fresh word first, the high half kept for the
    next draw (the bit generator's ``has_uint32`` and ``uinteger``), each
    half ``u`` rejected while ``(u * A) % 2**32 < 2**32 % A``; A = 1 takes no
    word.  The words come in blocks: each block holds one word per step still
    to go, drawn when the last runs out.  Every step takes at least one word,
    so no block reaches past where the per-step calls would stop, and with
    the half word written back, the stream stands exactly where they would
    leave it.
    """
    bitgen = rng.bit_generator
    st = bitgen.state
    kept = has_half, half = st["has_uint32"], st["uinteger"]
    threshold = 2**32 % n_actions
    words, i = [], 0
    cells = []
    for step in range(steps):
        if i == len(words):
            words, i = bitgen.random_raw(steps - step).tolist(), 0
        word = words[i]
        i += 1
        if (word >> 11) * 2.0**-53 >= epsilon or n_actions == 1:
            action = greedy[state]
        else:
            while True:
                if has_half:
                    u, has_half = half, 0
                else:
                    if i == len(words):
                        words, i = bitgen.random_raw(steps - step).tolist(), 0
                    word = words[i]
                    i += 1
                    u, half, has_half = word & 0xFFFFFFFF, word >> 32, 1
                m = u * n_actions
                if m & 0xFFFFFFFF >= threshold:
                    break
            action = m >> 32
        nxt = rows[state][action]
        cells.append(state * n_actions + action)
        episode_steps += 1
        if nxt == TERMINAL or episode_steps >= cap:
            state, episode_steps = 0, 0
        else:
            state = nxt
    if (has_half, half) != kept:
        st = bitgen.state
        st["has_uint32"], st["uinteger"] = has_half, half
        bitgen.state = st
    return cells, state, episode_steps


def run_training(env: TabularMdp, cfg: TrainConfig) -> TrainLog:
    """Epsilon-greedy replay Q-learning; deterministic given cfg.seed.

    Each epoch acts for ``steps_per_epoch`` steps, then runs
    ``updates_per_epoch`` updates on batches of ``batch_size`` cells.  An
    epoch's acting draws are blocks of raw Philox words, decoded as
    ``Generator.random`` and ``Generator.integers`` decode them (``_act``),
    and its visited cells go into the replay ring at once, in one ``put``
    that wraps at the ring's end.  All of an epoch's batches come from one
    draw of replay indices, which gives the same values, in the same order,
    as one draw per update; ``make_update`` gathers their rewards and
    successors once per epoch.  The updates write their TD errors into one
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

            cells, state, episode_steps = _act(rng, greedy, rows, n_actions, epsilon, state,
                                               episode_steps, cap, cfg.steps_per_epoch)
            replay.put(np.arange(written, written + len(cells)), cells, mode="wrap")
            written += len(cells)

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
