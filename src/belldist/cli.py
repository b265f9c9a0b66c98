"""Command-line front end: every experiment is a seeded subcommand.

Exit codes: 0 success, 1 domain/contract errors, 2 usage errors.  This module
is the only one in the package that touches files.  Each handler computes its
result, prints its summary to stdout and returns its output files as
``{file name: text}``; only once the handler has succeeded does ``main``
create ``--out`` and write each file, then ``run_manifest.json``, every one
atomically (tmp+rename), so a failed command leaves nothing behind.  The
manifest records the subcommand, the argument list ``main`` parsed, the fully
resolved arguments (defaults included), the tool version, the Python and
numpy versions and platform, the produced files and the wall time.  Output
CSVs use '.' decimals, '\\n' newlines and always carry a header row; JSON is
emitted with sorted keys so reruns diff cleanly.  No environment variables are
consulted; output is plain text, so NO_COLOR holds trivially.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import gof
from .distributions import DistSpec, Family, SampleBatch, normal_max_quantile, uniform_open
from .errors import BelldistError, DomainError
from .gumbel_algebra import kl_bound
from .losses import LN4, LOSS_NAMES, LossConfig, l_loss, mse_loss
from .mdp import TabularMdp, example1_row_errors, make_chain, make_example1, make_random_dag
from .normal_max import normal_max_gumbel
from .order_stats import sampling_error
from .scaling import RewardSample, scaling_curve
from .training import TrainConfig, compare_losses, run_training


def _write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _json(obj, indent: int | None = 2) -> str:
    return json.dumps(obj, sort_keys=True, indent=indent)


def _csv(header: list[str], columns) -> str:
    """CSV text with a header row, from one sequence per column.  A float
    column (numpy's too) is written as ``repr`` of each value, the shortest
    text that reads back to the same bits; any other column as ``str``."""
    cells = []
    for column in columns:
        column = np.asarray(column)
        cells.append(map(repr if column.dtype.kind == "f" else str, column.tolist()))
    return "\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n"


def _read_values(path: str) -> SampleBatch:
    """A single-column CSV with header 'value', as ``_csv(["value"], [values])`` writes it."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise BelldistError(f"{path}: cannot read: {exc.strerror}") from exc
    if not rows or rows[0] != ["value"]:
        raise DomainError(f"{path}: expected a single-column CSV with header 'value'")
    try:
        values = np.array([float(r[0]) for r in rows[1:]])
    except (ValueError, IndexError) as exc:
        raise DomainError(f"{path}: every row after the header must hold one number") from exc
    return SampleBatch(values)


def _int_list(text: str, what: str) -> list[int]:
    """Comma-separated integers; anything else is a BelldistError naming ``what``."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise BelldistError(f"{what} must be comma-separated integers, got {text!r}") from exc


def parse_env(spec: str, seed: int) -> TabularMdp:
    """'example1' | 'chain:N' | 'dag:S,A' | a path to an MDP JSON file."""
    if spec == "example1":
        return make_example1()
    if spec.startswith(("chain:", "dag:")):
        kind, params = spec.split(":", 1)
        sizes = _int_list(params, f"the sizes in {spec!r}")
        if kind == "chain" and len(sizes) == 1:
            return make_chain(sizes[0])
        if kind == "dag" and len(sizes) == 2:
            return make_random_dag(sizes[0], sizes[1], seed=seed)
        raise BelldistError(f"environment spec must be chain:N or dag:S,A, got {spec!r}")
    if spec.endswith(".json"):
        try:
            text = Path(spec).read_text()
        except OSError as exc:
            raise BelldistError(f"{spec}: cannot read: {exc.strerror}") from exc
        return TabularMdp.from_json(text)
    raise BelldistError(f"unknown environment spec {spec!r}")


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, steps = text.split(":")
        lo, hi = float(lo), float(hi)
        if np.isfinite(lo) and np.isfinite(hi):
            return np.linspace(lo, hi, int(steps))
    except ValueError as exc:
        raise BelldistError(f"grid must be lo:hi:steps, got {text!r}") from exc
    raise BelldistError(f"grid ends must be finite, got {text!r}")


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns its output files as {file name: text})
# ---------------------------------------------------------------------------

def cmd_example1(args) -> dict[str, str]:
    init = DistSpec(Family(args.init), 0.0, 1.0)
    files = {}
    for t in range(1, args.iters + 1):
        snap = example1_row_errors(t, seed=args.seed, init=init)
        rows, n_actions = snap.eps_gap.shape
        files[f"errors_t{t}.csv"] = _csv(
            ["t", "state", "action", "eps_gap", "bellman_err"],
            [np.full(rows * n_actions, snap.t), np.arange(rows).repeat(n_actions),
             np.tile(np.arange(n_actions), rows), snap.eps_gap_flat, snap.bellman_err_flat],
        )
        fits = {
            "eps_gap": [r.to_dict() for r in gof.rank_families(SampleBatch(snap.eps_gap_flat))],
            "bellman_err": [r.to_dict() for r in gof.rank_families(SampleBatch(snap.bellman_err_flat))],
        }
        files[f"fits_t{t}.json"] = _json(fits) + "\n"
    print(f"wrote {len(files)} files to {Path(args.out)}")
    return files


def cmd_fit(args) -> dict[str, str]:
    data = _read_values(args.input)
    if args.bins == "fd":
        bins = "fd"
    else:
        try:
            bins = int(args.bins)
        except ValueError as exc:
            raise BelldistError(f"--bins must be 'fd' or an integer, got {args.bins!r}") from exc
    rows = [r.to_dict() for r in gof.rank_families(data, n_bins=bins)]
    text = _json(rows)
    print(text)
    header = ["family", "r2", "sse", "rmse", "ks", "location", "scale", "n_bins", "n_samples"]
    return {
        "fit_reports.json": text + "\n",
        "fit_summary.csv": _csv(header, [[row[k] for row in rows] for k in header]),
    }


def cmd_klbound(args) -> dict[str, str]:
    text = kl_bound(args.astar, args.gamma).to_json()
    print(text)
    return {"klbound.json": text + "\n"}


def cmd_normal_max(args) -> dict[str, str]:
    if args.mc < 0:
        raise BelldistError(f"--mc must be >= 0, got {args.mc}")
    params = normal_max_gumbel(args.n)
    payload = asdict(params)
    if args.mc:
        mc = payload["mc"] = {"replicates": args.mc, "seed": args.seed, "ks": None}
        if params.a_n > 0:
            draws = normal_max_quantile(uniform_open(args.seed, args.mc), float(args.n))
            law = DistSpec(Family.GUMBEL, params.b_n, params.a_n)
            mc["ks"] = gof.ks_statistic(SampleBatch(draws), law)
        else:
            # the correction series degrades below n ~ 90 and can return a
            # non-positive scale; there is no law to test against
            mc["note"] = "scale is non-positive at this n; approximation invalid"
    text = _json(payload)
    print(text)
    return {"normal_max.json": text + "\n"}


def cmd_sampling_error(args) -> dict[str, str]:
    sizes = _int_list(args.n, "--n")
    rows = [(n, sampling_error(n, args.a, args.b).s_e) for n in sizes]
    for n, se in rows:
        print(f"{n},{se:.6e}")
    return {"sampling_error.csv": _csv(["n", "s_e"], zip(*rows))}


def cmd_scaling(args) -> dict[str, str]:
    rewards = _read_values(args.rewards).values
    sample = RewardSample(rewards, args.beta)
    grid = _parse_grid(args.phi_grid)
    curve = scaling_curve(sample, grid)
    summary = {
        "cond1": curve.cond1,
        "cond2": curve.cond2,
        "phi_star": curve.phi_star,
        "beta": args.beta,
    }
    print(_json(summary, indent=None))
    return {
        "scaling_curve.csv": _csv(
            ["phi", "expected_error", "below_regime"],
            [curve.phi_grid, curve.expectations, curve.below_regime.astype(int)],
        ),
        "scaling_summary.json": _json(summary) + "\n",
    }


def cmd_losscheck(args) -> dict[str, str]:
    grid = _parse_grid(args.t_grid)
    cfg = LossConfig(sigma=1.0)
    rows = []
    for t in grid:
        ll = l_loss(np.array([t]), cfg)
        mse_plus = LN4 + 0.5 * mse_loss(np.array([t]))
        rows.append((t, ll, mse_plus, abs(ll - mse_plus)))
    print(f"wrote {Path(args.out) / 'losscheck.csv'}")
    return {"losscheck.csv": _csv(["t", "lloss", "mse_plus_ln4", "gap"], zip(*rows))}


def _train_config(args) -> TrainConfig:
    # every TrainConfig field but early_stop_patience has a flag of its name
    names = ("loss", "sigma", "batch_size", "lr", "tau", "reward_scale", "epochs",
             "approximator", "seed")
    return TrainConfig(**{name: getattr(args, name) for name in names})


def cmd_train(args) -> dict[str, str]:
    env = parse_env(args.env, seed=args.seed)
    log = run_training(env, _train_config(args))
    files = {"reward_curve.csv": _csv(["epoch", "reward"], [range(log.epochs_run), log.rewards])}
    for epoch, errs in enumerate(log.bellman_errors):
        if errs.size:
            files[f"bellman_errors_epoch{epoch}.csv"] = _csv(["value"], [errs])
    files["policy.json"] = _json({"greedy_policy": log.final_policy.tolist(),
                                  "epochs_run": log.epochs_run}, indent=None) + "\n"
    print(f"trained {log.epochs_run} epochs; final return {log.rewards[-1]}")
    return files


def cmd_compare(args) -> dict[str, str]:
    env = parse_env(args.env, seed=args.seed)
    seeds = _int_list(args.seeds, "--seeds")
    base = _train_config(args)
    payload = asdict(compare_losses(env, base, seeds))
    text = _json({k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in payload.items()})
    print(text)
    return {"comparison.json": text + "\n"}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--env", required=True, help="example1 | chain:N | dag:S,A | path.json")
    p.add_argument("--loss", choices=LOSS_NAMES, default=TrainConfig.loss)
    p.add_argument("--sigma", type=float, default=TrainConfig.sigma)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--tau", type=float, default=TrainConfig.tau)
    p.add_argument("--reward-scale", type=float, default=TrainConfig.reward_scale)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--approximator", choices=["tabular", "mlp"], default=TrainConfig.approximator)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belldist",
        description="Seeded experiments over Gumbel/Logistic error distributions of Q-iteration",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # --seed and --out on every subcommand, so every run has both in its manifest
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="RNG seed; subcommands with deterministic output accept it for "
                        "interface uniformity")
    common.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("example1", parents=[common],
                       help="error rows of the five-state benchmark + family fits")
    p.add_argument("--iters", type=int, default=4)
    p.add_argument("--init", choices=["normal", "gumbel"], default="normal")
    p.set_defaults(func=cmd_example1)

    p = sub.add_parser("fit", parents=[common], help="fit all three families to a value CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--bins", default="50")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("klbound", parents=[common],
                       help="discount-mismatch KL bound and the exact KL")
    p.add_argument("--astar", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=cmd_klbound)

    p = sub.add_parser("normal-max", parents=[common],
                       help="Gumbel approximation of max of N Normals")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mc", type=int, default=0, help="Monte Carlo replicates for a KS check")
    p.set_defaults(func=cmd_normal_max)

    p = sub.add_parser("sampling-error", parents=[common],
                       help="expected-empirical-CDF sampling error per batch size")
    p.add_argument("--n", required=True, help="comma-separated batch sizes")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.set_defaults(func=cmd_sampling_error)

    p = sub.add_parser("scaling", parents=[common],
                       help="expected error along a reward-scaling grid")
    p.add_argument("--rewards", required=True, help="single-column CSV of rewards")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--phi-grid", default="1:3:41")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("losscheck", parents=[common],
                       help="Logistic loss vs log4 + mse/2 along a grid")
    p.add_argument("--t-grid", default="-0.5:0.5:101")
    p.set_defaults(func=cmd_losscheck)

    p = sub.add_parser("train", parents=[common], help="one training run")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", parents=[common], help="mse vs lloss arms over seeds")
    _add_train_flags(p)
    p.add_argument("--seeds", default="0,1")
    p.set_defaults(func=cmd_compare)

    return parser


def _manifest(argv: list[str], args, out: Path, files: dict[str, str], started: float) -> str:
    manifest = {
        "subcommand": args.subcommand,
        "argv": argv,
        "args": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seed": args.seed,
        "version": __version__,
        # what the output bytes depend on besides the arguments
        "environment": {
            "python": "{}.{}.{}".format(*sys.version_info[:3]),
            "numpy": np.__version__,
            "platform": sys.platform,
        },
        "outputs": sorted(str(out / name) for name in files),
        "wall_time_s": time.monotonic() - started,
    }
    return json.dumps(manifest, sort_keys=True, indent=2, default=str) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        files = args.func(args)
    except (BelldistError, MemoryError) as exc:  # numpy refuses an oversized array at once
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            _write(out / name, text)
        _write(out / "run_manifest.json", _manifest(argv, args, out, files, started))
    except OSError as exc:
        print(f"error: {args.out}: cannot write: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
