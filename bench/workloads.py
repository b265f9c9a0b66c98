"""The benchmark's three workloads: ``train``, ``analysis`` and ``cli``.

Each workload has a finite *universe* of ops, every one of which has a stored
reference output (``bench/reference/<workload>.json``).  The benchmark runs
*passes*: op lists with a fixed pattern of op kinds, whose variants (training
seeds, random DAGs, sample laws, CLI arguments and input files) are drawn from
the universe by the seed and the pass number.  Every pass of a workload does
the same kinds of work, and a run of many passes averages over the universe,
so figures from different seeds are comparable.

belldist is imported only inside ``setup``, after the benchmark has put the
checkout's ``src`` on the path.
"""

from __future__ import annotations

import csv
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Op:
    kind: str  # selects the code path and, in traces, the op span name
    key: str  # reference key, unique within the workload's universe
    params: tuple


def _pass_rng(seed: int, k: int) -> random.Random:
    return random.Random(seed * 1_000_003 + k)


@dataclass
class Result:
    """What the check sees of one op: ``value`` is summarized and compared at
    a tolerance, ``exact`` is digested; ``files``/``nbytes`` count CLI output."""

    value: object
    exact: object
    files: int = 0
    nbytes: int = 0


class _InProcess:
    in_process = True

    def output(self, op: Op, raw) -> Result:
        return Result(raw, raw)

    def release(self, raw) -> None:
        pass


# ---------------------------------------------------------------------------
# train: run_training with early stop disabled
# ---------------------------------------------------------------------------

class TrainWorkload(_InProcess):
    """Two tabular runs for each MLP run, over {chain:5, dag:12,4} x {mse, lloss}.

    Tabular runs are the median op (replay gather dominates) and MLP runs the
    90th percentile (backprop), so neither percentile sits between the two.
    """

    name = "train"
    ENVS = ("chain:5", "dag:12,4")
    LOSSES = ("mse", "lloss")
    LR = {"tabular": 0.5, "mlp": 0.05}  # 0.05 keeps the MLP from diverging
    EPOCHS = 40
    POOL = 8

    @staticmethod
    def _op(env: str, loss: str, approx: str, seed: int) -> Op:
        return Op(approx, f"train/{env}/{loss}/{approx}/seed={seed}", (env, loss, approx, seed))

    def universe(self) -> list[Op]:
        return [self._op(*p) for p in product(self.ENVS, self.LOSSES, ("tabular", "mlp"), range(self.POOL))]

    def pass_ops(self, seed: int, k: int) -> list[Op]:
        rng = _pass_rng(seed, k)
        grid = list(product(self.ENVS, self.LOSSES))
        tab = [self._op(e, l, "tabular", s) for e, l in grid for s in rng.sample(range(self.POOL), 2)]
        mlp = [self._op(e, l, "mlp", rng.randrange(self.POOL)) for e, l in grid]
        rng.shuffle(tab)
        rng.shuffle(mlp)
        # a tabular op comes first: it is also the warm-up op in set-up
        return [op for i in range(len(mlp)) for op in (tab[2 * i], tab[2 * i + 1], mlp[i])]

    def setup(self, ops: list[Op], scratch: Path) -> None:
        from belldist.mdp import make_chain, make_random_dag
        from belldist.training import TrainConfig, run_training

        self._run_training = run_training
        self.inputs = {}
        for op in ops:
            env, loss, approx, seed = op.params
            size = env.split(":", 1)[1]
            mdp = (make_chain(int(size)) if env.startswith("chain:")
                   else make_random_dag(*map(int, size.split(",")), seed=seed))
            cfg = TrainConfig(loss=loss, lr=self.LR[approx], epochs=self.EPOCHS,
                              early_stop_patience=self.EPOCHS, approximator=approx, seed=seed)
            self.inputs[op.key] = (mdp, cfg)

    def run(self, op: Op, tracer):
        mdp, cfg = self.inputs[op.key]
        log = tracer.call(f"training.run_training.{op.kind}", self._run_training, mdp, cfg)
        return {
            "epochs_run": log.epochs_run,
            "final_policy": log.final_policy,
            "rewards": log.rewards,
            "final_q": log.final_q,
            "error_sizes": np.array([e.size for e in log.bellman_errors]),
            "errors": np.concatenate(log.bellman_errors),
        }

    def work(self, op: Op) -> tuple[int, int]:
        """(environment steps, gradient updates) the config prescribes."""
        cfg = self.inputs[op.key][1]
        updates = sum(
            cfg.updates_per_epoch
            for e in range(cfg.epochs)
            if min((e + 1) * cfg.steps_per_epoch, cfg.replay_capacity) >= cfg.batch_size
        )
        return cfg.epochs * cfg.steps_per_epoch, updates


# ---------------------------------------------------------------------------
# analysis: the paper's distribution experiments, in process
# ---------------------------------------------------------------------------

KL_ASTAR = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)
KL_GAMMA = (0.9, 0.95, 0.99)
NORMAL_MAX_N = (256, 1024, 4096)


class AnalysisWorkload(_InProcess):
    """Four op kinds, interleaved in a fixed pattern.

    ``small`` (24 256-draw fits, where per-call overhead dominates) and
    ``rows`` (example1 error rows at one t, plus family ranking of both rows)
    are the cheap 30%; ``large`` (1e5-draw sample, three MLE fits and KS) is
    the middle 50% and holds the median; ``closed`` (the closed forms, led by
    sampling_error(2**20) and the KL quadrature) is the top 20% and holds the
    90th percentile.  The cheap ops take under half as long as the large
    ones, so neither percentile sits where two kinds overlap.
    """

    name = "analysis"
    POOL = 16
    PATTERN = ("large", "small", "large", "rows", "closed", "large", "large", "rows", "large", "closed",
               "large", "small", "large", "closed", "rows", "large", "large", "small", "closed", "large")
    FAMILIES = ("gumbel", "logistic", "normal")
    ROWS_T = (1, 2, 3, 4)
    LARGE_N = 100_000
    SMALL_BATCHES, SMALL_N = 24, 256
    MC_DRAWS = 100_000

    @staticmethod
    def _op(kind: str, seed: int, variant=None) -> Op:
        """``variant`` is the sampled family of a ``large`` op and the
        iteration t of a ``rows`` op."""
        tag = kind if variant is None else f"{kind}/{variant}"
        return Op(kind, f"analysis/{tag}/seed={seed}", (seed, variant))

    def universe(self) -> list[Op]:
        ops = [self._op("large", s, f) for f in self.FAMILIES for s in range(self.POOL)]
        ops += [self._op("rows", s, t) for t in self.ROWS_T for s in range(self.POOL)]
        return ops + [self._op(k, s) for k in ("small", "closed") for s in range(self.POOL)]

    def pass_ops(self, seed: int, k: int) -> list[Op]:
        rng = _pass_rng(seed, k)
        counts = {k: self.PATTERN.count(k) for k in dict.fromkeys(self.PATTERN)}
        drawn = {k: rng.sample(range(self.POOL), n) for k, n in counts.items()}
        variants = {"large": [self.FAMILIES[i % 3] for i in range(counts["large"])],
                    "rows": rng.sample(self.ROWS_T, counts["rows"])}
        rng.shuffle(variants["large"])
        return [self._op(kind, drawn[kind].pop(), variants[kind].pop() if kind in variants else None)
                for kind in self.PATTERN]

    def setup(self, ops: list[Op], scratch: Path) -> None:
        from scipy.special import ndtri

        from belldist import distributions as dist
        from belldist import gof, gumbel_algebra, losses, mdp, normal_max, order_stats, scaling

        self.ndtri = ndtri
        self.dist, self.gof, self.mdp = dist, gof, mdp
        self.kl_bound = gumbel_algebra.kl_bound
        self.normal_max_gumbel = normal_max.normal_max_gumbel
        self.sampling_error = order_stats.sampling_error
        self.scaling = scaling
        self.losses = losses
        self.row_init = dist.DistSpec(dist.Family.NORMAL, 0.0, 1.0)
        self.inputs = {}
        t_grids = {}
        for op in ops:
            seed, variant = op.params
            if op.kind == "large":
                r = random.Random(1000 + seed)
                self.inputs[op.key] = dist.DistSpec(variant, r.uniform(-2.0, 2.0), r.uniform(0.5, 2.0))
            elif op.kind == "small":
                rng = np.random.default_rng(2000 + seed)
                shape = (self.SMALL_BATCHES, self.SMALL_N)
                values = rng.gumbel(size=shape) - rng.gumbel(size=shape)
                values = values * rng.uniform(0.5, 2.0, (shape[0], 1)) + rng.uniform(-1.0, 1.0, (shape[0], 1))
                self.inputs[op.key] = [dist.SampleBatch(v) for v in values]
            elif op.kind == "closed":
                r = random.Random(3000 + seed)
                rng = np.random.default_rng(3000 + seed)
                rewards = np.concatenate([[1.0 + 2.0 * rng.random()], -(0.05 + 0.15 * rng.random(30))])
                half = 0.5 + 0.25 * (seed % 4)
                if half not in t_grids:
                    t_grids[half] = np.linspace(-half, half, 100_001)
                self.inputs[op.key] = {
                    "kl": [(r.choice(KL_ASTAR), r.choice(KL_GAMMA)) for _ in range(3)],
                    "n": NORMAL_MAX_N[seed % 3],
                    "rewards": scaling.RewardSample(rewards, 1.0),
                    "phi_grid": np.linspace(1.0, 3.0, 41),
                    "dag": mdp.make_random_dag(12, 4, seed=seed),
                    "t_grid": t_grids[half],
                    "loss_cfg": losses.LossConfig(sigma=1.0),
                }

    def run(self, op: Op, tracer):
        return getattr(self, "_" + op.kind)(op, tracer)

    def _large(self, op: Op, tracer):
        seed, _ = op.params
        dist, call = self.dist, tracer.call
        batch = call("distributions.sample", dist.sample, self.inputs[op.key], self.LARGE_N, seed)
        fits = {}
        for fam in dist.Family:
            spec = call(f"distributions.fit_mle.{fam.value}.large", dist.fit_mle, fam, batch)
            ks = call("gof.ks_statistic", self.gof.ks_statistic, batch, spec)
            fits[fam.value] = {"location": spec.location, "scale": spec.scale, "ks": ks}
        return {"sample": batch.values, "fits": fits}

    def _small(self, op: Op, tracer):
        dist, call, ks_statistic = self.dist, tracer.call, self.gof.ks_statistic
        rows = []
        for batch in self.inputs[op.key]:
            logi = call("distributions.fit_mle.logistic.small", dist.fit_mle, dist.Family.LOGISTIC, batch)
            norm = call("distributions.fit_mle.normal.small", dist.fit_mle, dist.Family.NORMAL, batch)
            ks_l = call("gof.ks_statistic.small", ks_statistic, batch, logi)
            ks_n = call("gof.ks_statistic.small", ks_statistic, batch, norm)
            rows.append((logi.location, logi.scale, norm.location, norm.scale, ks_l, ks_n))
        table = np.array(rows)
        return {"fits": table.T, "logistic_wins": int(np.sum(table[:, 4] <= table[:, 5]))}

    def _rows(self, op: Op, tracer):
        seed, t = op.params
        call, rank = tracer.call, self.gof.rank_families
        snap = call("mdp.example1_row_errors", self.mdp.example1_row_errors, t, seed=seed,
                    init=self.row_init)
        gap = self.dist.SampleBatch(snap.eps_gap_flat)
        bell = self.dist.SampleBatch(snap.bellman_err_flat)
        return {
            "eps_gap": snap.eps_gap,
            "bellman_err": snap.bellman_err,
            "fits_gap": [r.to_dict() for r in call("gof.rank_families", rank, gap)],
            "fits_bellman": [r.to_dict() for r in call("gof.rank_families", rank, bell)],
        }

    def _closed(self, op: Op, tracer):
        seed, _ = op.params
        inp, call, dist = self.inputs[op.key], tracer.call, self.dist
        kl = [call("gumbel_algebra.kl_bound", self.kl_bound, a, g) for a, g in inp["kl"]]
        nm = call("normal_max.normal_max_gumbel", self.normal_max_gumbel, inp["n"])
        u = call("distributions.uniform_open", dist.uniform_open, seed, self.MC_DRAWS)
        draws = dist.SampleBatch(-self.ndtri(-np.expm1(np.log(u) / float(inp["n"]))))
        mc_ks = call("gof.ks_statistic", self.gof.ks_statistic, draws,
                     dist.DistSpec(dist.Family.GUMBEL, nm.b_n, nm.a_n))
        se = call("order_stats.sampling_error", self.sampling_error, 2**20)
        curve = call("scaling.scaling_curve", self.scaling.scaling_curve, inp["rewards"], inp["phi_grid"])
        qstar = call("mdp.solve_qstar", self.mdp.solve_qstar, inp["dag"])
        pred = call("mdp.predict_gumbel", self.mdp.predict_gumbel, inp["dag"], 10, 0.0, 1.0)
        loss = call("losses.l_loss", self.losses.l_loss, inp["t_grid"], inp["loss_cfg"])
        return {
            "kl": [json.loads(r.to_json()) for r in kl],
            "normal_max": [nm.a_n, nm.b_n, mc_ks],
            "sampling_error": se.s_e,
            "scaling": {"expectations": curve.expectations, "cond1": curve.cond1,
                        "cond2": curve.cond2, "phi_star": curve.phi_star},
            "qstar": qstar.values,
            "predict": {"c_t": pred.c_t, "beta_t": pred.beta_t},
            "l_loss": loss,
        }


# ---------------------------------------------------------------------------
# cli: README subcommands as `python -m belldist.cli` subprocesses
# ---------------------------------------------------------------------------

def _cli_variants(sub: str) -> list[tuple[str, ...]]:
    """Argument lists for one subcommand; ``{values:v}``/``{rewards:v}`` name
    input CSVs the benchmark writes at set-up."""
    if sub == "klbound":
        return [(sub, "--astar", repr(a), "--gamma", repr(g)) for a in KL_ASTAR[:6] for g in KL_GAMMA]
    if sub == "normal-max":
        return [(sub, "--n", str(n), "--mc", "20000", "--seed", str(s)) for n in NORMAL_MAX_N for s in range(4)]
    if sub == "sampling-error":
        return [(sub, "--n", ",".join(map(str, sorted(random.Random(v).sample(range(2, 4097), 8)))))
                for v in range(8)]
    if sub == "scaling":
        return [(sub, "--rewards", f"{{rewards:{v}}}", "--beta", ("0.5", "1.0", "2.0")[v % 3]) for v in range(8)]
    if sub == "losscheck":
        return [(sub, f"--t-grid=-{0.25 * (v + 1)}:{0.25 * (v + 1)}:101") for v in range(8)]
    if sub == "fit":
        return [(sub, "--input", f"{{values:{v}}}", "--bins", "50") for v in range(8)]
    if sub == "example1":
        return [(sub, "--seed", str(v), "--iters", "4") for v in range(8)]
    if sub == "train":
        return [(sub, "--env", env, "--loss", loss, "--lr", "0.5", "--epochs", "40", "--seed", str(s))
                for env, loss, s in product(TrainWorkload.ENVS, TrainWorkload.LOSSES, range(4))]
    if sub == "compare":
        return [(sub, "--env", "dag:12,4", "--lr", "0.5", "--epochs", "10",
                 "--seeds", f"{2 * v},{2 * v + 1}", "--seed", str(v)) for v in range(8)]
    raise ValueError(sub)


def _input_csv(kind: str, variant: int) -> str:
    if kind == "values":  # Gumbel differences: near-Logistic, like Bellman errors
        rng = np.random.default_rng(4000 + variant)
        values = rng.gumbel(size=2000) - rng.gumbel(size=2000)
    else:  # one positive reward among small negative ones, so phi* exists
        rng = np.random.default_rng(5000 + variant)
        values = np.concatenate([[1.0 + 2.0 * rng.random()], -(0.05 + 0.15 * rng.random(30))])
    return "value\n" + "".join(f"{float(v)!r}\n" for v in values)


def _column(cells: list[str]):
    for parse in (int, float):
        try:
            return np.array([parse(c) for c in cells])
        except ValueError:
            pass
    return cells


def _parse_output(name: str, data: bytes):
    text = data.decode()
    if name.endswith(".json"):
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    columns = {}
    for j, head in enumerate(rows[0]):
        cells = [r[j] for r in rows[1:]]
        columns[head] = _column(cells)
    return {"header": rows[0], "columns": columns}


class CliWorkload:
    """Six light subcommands (import-bound) and three heavy ones per pass.

    The light two thirds put the median on the interpreter-plus-import floor.
    Of the heavy third, example1 (eight files) is the cheapest; train (one CSV
    per epoch) and compare (10 epochs, so it costs about what train costs)
    share the top 22%, which puts the 90th percentile inside one compute-bound
    block rather than on the edge between two.
    """

    name = "cli"
    in_process = False
    PATTERN = ("klbound", "normal-max", "example1", "sampling-error", "scaling", "train",
               "losscheck", "fit", "compare")
    MANIFEST = "run_manifest.json"
    TIMEOUT_S = 120

    def universe(self) -> list[Op]:
        return [Op(sub, "cli/" + " ".join(argv), argv) for sub in self.PATTERN for argv in _cli_variants(sub)]

    def pass_ops(self, seed: int, k: int) -> list[Op]:
        rng = _pass_rng(seed, k)
        ops = []
        for sub in self.PATTERN:
            argv = rng.choice(_cli_variants(sub))
            ops.append(Op(sub, "cli/" + " ".join(argv), argv))
        return ops

    def setup(self, ops: list[Op], scratch: Path) -> None:
        self.scratch = scratch
        inputs = scratch / "inputs"
        inputs.mkdir(exist_ok=True)
        self.paths = {}
        for op in ops:
            for token in op.params:
                if token.startswith("{") and token not in self.paths:
                    kind, variant = token.strip("{}").split(":")
                    path = inputs / f"{kind}_{variant}.csv"
                    path.write_text(_input_csv(kind, int(variant)))
                    self.paths[token] = str(path)

    def run(self, op: Op, tracer):
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        argv = [self.paths.get(token, token) for token in op.params]
        cmd = [sys.executable, "-m", "belldist.cli", *argv, "--out", str(out)]
        proc = tracer.call(f"cli.{op.kind}", subprocess.run, cmd, cwd=out, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, timeout=self.TIMEOUT_S)
        return proc, out

    def output(self, op: Op, raw) -> Result:
        proc, out = raw
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.decode().strip()[-300:]}")
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        manifest = json.loads(files.pop(self.MANIFEST))  # holds wall time: not digested
        if manifest["subcommand"] != op.kind:
            raise RuntimeError(f"manifest names {manifest['subcommand']!r}")
        parsed = {name: _parse_output(name, data) for name, data in files.items()}
        return Result(parsed, files, files=len(files) + 1, nbytes=sum(map(len, files.values())))

    def release(self, raw) -> None:
        shutil.rmtree(raw[1], ignore_errors=True)


WORKLOADS = {w.name: w for w in (TrainWorkload, AnalysisWorkload, CliWorkload)}
