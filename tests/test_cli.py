import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import belldist
from belldist import BelldistError, DistSpec, Family, distributions, sample
from belldist.cli import _csv, _read_values, build_parser, main
from belldist.distributions import uniform_open
from conftest import mdp_json


def run_cli(args: list[str]) -> int:
    return main(args)


def read_json(path: Path):
    return json.loads(path.read_text())


def write_values(path: Path, values) -> str:
    """A single-column value CSV, the input format of ``fit`` and ``scaling``."""
    path.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in values))
    return str(path)


def test_usage_error_exit_code_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-subcommand"])
    assert exc.value.code == 2


def test_domain_error_exit_code_one(tmp_path, capsys):
    rc = run_cli(["klbound", "--astar", "1.0", "--gamma", "1.5", "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["klbound", "--astar", "1000", "--gamma", "0.1"],  # the KL overflows float64
    ["klbound", "--astar", "nan", "--gamma", "0.9"],
    ["train", "--env", "chain:3", "--epochs", "0"],
])
def test_contract_violation_exit_code_one(tmp_path, capsys, argv):
    assert run_cli([*argv, "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sampling-error", "--n", "2,abc"],
    ["train", "--env", "chain:x"],
    ["train", "--env", "dag:12"],
    ["normal-max", "--n", "4096", "--mc", "-5"],
    ["fit", "--input", "{missing}"],
    ["compare", "--env", "chain:3", "--seeds", "0,x"],
    ["train", "--env", "{missing}.json"],
    ["train", "--env", "{partial}"],
    ["train", "--env", "{fractional}"],  # n_states 2.7 would load as 2
    ["train", "--env", "{string-gamma}"],  # gamma "0.9" would load as 0.9
    ["fit", "--input", "{non-numeric}"],
    ["fit", "--input", "{empty-row}"],
    ["fit", "--input", "{no-header}"],
    ["scaling", "--rewards", "{rewards}", "--beta", "1e-320"],  # phi * r / beta overflows
    # 10**15 float64s (7 PiB) exceed the address space: numpy refuses at once
    ["sampling-error", "--n", "2,1000000000000000"],
    ["normal-max", "--n", "4096", "--mc", "1000000000000000"],
    ["losscheck", "--t-grid=nan:1:5"],
    # the replay never holds a batch, so no gradient update could run
    ["train", "--env", "chain:5", "--batch-size", "20000", "--epochs", "3"],
    # a Philox key lies in [0, 2**128)
    ["example1", "--seed", "-1"],
    ["normal-max", "--n", "256", "--mc", "10", "--seed", "-3"],
    ["train", "--env", "chain:3", "--seed", "-1"],
    ["compare", "--env", "chain:3", "--seeds=-1,0"],
    ["train", "--env", "chain:3", "--epochs", "2", "--lr", "inf"],
    ["scaling", "--rewards", "{rewards}", "--beta", "inf"],
    ["sampling-error", "--n", "2", "--a", "nan"],
], ids=["sampling-error-n", "train-chain", "train-dag", "normal-max-mc", "fit-input",
        "compare-seeds", "train-json-missing", "train-json-fields", "train-json-fractional",
        "train-json-string-gamma", "fit-input-non-numeric", "fit-input-empty-row", "fit-input-no-header", "scaling-tiny-beta",
        "sampling-error-huge-n", "normal-max-huge-mc", "losscheck-nan-grid",
        "train-batch-exceeds-replay", "example1-negative-seed", "normal-max-negative-seed",
        "train-negative-seed", "compare-negative-seed", "train-infinite-lr",
        "scaling-infinite-beta", "sampling-error-nan-location"])
def test_malformed_input_exit_code_one(tmp_path, capsys, argv):
    files = {
        "{missing}": tmp_path / "no-such-file",
        "{partial}": tmp_path / "partial.json",
        "{fractional}": tmp_path / "fractional.json",
        "{string-gamma}": tmp_path / "string-gamma.json",
        "{non-numeric}": tmp_path / "non-numeric.csv",
        "{empty-row}": tmp_path / "empty-row.csv",
        "{no-header}": tmp_path / "no-header.csv",
        "{rewards}": tmp_path / "rewards.csv",
    }
    files["{partial}"].write_text('{"n_states": 2}')
    files["{fractional}"].write_text('{"n_states": 2.7, "n_actions": 1, "transitions": [[1], [-1]],'
                                     ' "rewards": [[0.5], [1.0]], "gamma": 0.9}')
    files["{string-gamma}"].write_text('{"n_states": 2, "n_actions": 1, "transitions": [[1], [-1]],'
                                       ' "rewards": [[0.5], [1.0]], "gamma": "0.9"}')
    files["{non-numeric}"].write_text("value\n1.5\nabc\n")
    files["{empty-row}"].write_text("value\n1.5\n\n2.5\n")
    files["{no-header}"].write_text("1.5\n2.5\n")
    write_values(files["{rewards}"], [1.0, -1.0, -2.0])
    for key, path in files.items():
        argv = [a.replace(key, str(path)) for a in argv]
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["sampling-error", "--n", str(2**60)],
    ["normal-max", "--n", "256", "--mc", str(2**60)],
    ["train", "--env", f"chain:{2**62}"],
    ["train", "--env", f"dag:3,{2**61}"],
    ["fit", "--input", "{values}", "--bins", str(2**60)],
], ids=["sampling-error-n", "normal-max-mc", "train-chain", "train-dag", "fit-bins"])
def test_size_beyond_numpys_array_limit_exit_code_one(tmp_path, capsys, argv):
    # from 2**60 float64 elements numpy raises a bare ValueError ("array is
    # too big"), not the MemoryError that main maps; that gave a traceback
    values = write_values(tmp_path / "values.csv", [0.5, 1.5, 2.5])
    argv = [a.replace("{values}", values) for a in argv]
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_failed_command_writes_nothing(tmp_path):
    # the run fails in TrainConfig, after argument parsing: --out must not appear
    out = tmp_path / "D"
    assert run_cli(["train", "--env", "chain:3", "--epochs", "0", "--out", str(out)]) == 1
    assert not out.exists()


def test_unwritable_out_exit_code_one(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")  # a file where the output directory should go
    assert run_cli(["klbound", "--astar", "1", "--gamma", "0.9", "--out", str(taken)]) == 1
    assert "cannot write" in capsys.readouterr().err


def test_value_csv_roundtrip(tmp_path):
    batch = sample(DistSpec(Family.LOGISTIC, 0.1, 0.9), 257, seed=3)
    path = tmp_path / "values.csv"
    path.write_text(_csv(["value"], [batch.values]))
    assert path.read_text().splitlines()[0] == "value"
    assert np.array_equal(_read_values(str(path)).values, batch.values)


def test_value_csv_missing_file_raises_belldist_error(tmp_path):
    with pytest.raises(BelldistError):
        _read_values(str(tmp_path / "missing.csv"))


def test_fit_spread_beyond_float64_exit_code_one(tmp_path, capsys):
    data_path = write_values(tmp_path / "huge.csv", [1e300, -1e300, 0.0])
    assert run_cli(["fit", "--input", data_path, "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_fit_that_does_not_converge_exit_code_one(tmp_path, capsys, monkeypatch):
    # one Newton step is too few for any fit of 5000 Cauchy draws
    monkeypatch.setattr(distributions, "_MAX_NEWTON", 1)
    cauchy = np.tan(math.pi * (uniform_open(0, 5000, stream=1) - 0.5))
    data_path = write_values(tmp_path / "cauchy.csv", cauchy)
    out = tmp_path / "out"
    assert run_cli(["fit", "--input", data_path, "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_fit_bins_must_be_integer(tmp_path, capsys):
    values = sample(DistSpec(Family.NORMAL, 0.0, 1.0), 200, seed=1).values
    data_path = write_values(tmp_path / "values.csv", values)
    argv = ["fit", "--input", data_path, "--bins", "abc", "--out", str(tmp_path)]
    assert run_cli(argv) == 1
    assert "--bins" in capsys.readouterr().err


def test_help_on_every_subcommand():
    parser = build_parser()
    subcommands = [
        "example1", "fit", "klbound", "normal-max",
        "sampling-error", "scaling", "losscheck", "train", "compare",
    ]
    for name in subcommands:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([name, "--help"])
        assert exc.value.code == 0


def test_manifest_records_the_argv_main_parsed(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["host", "--x"])
    argv = ["klbound", "--astar", "1", "--gamma", "0.9", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert read_json(tmp_path / "run_manifest.json")["argv"] == argv


# Runs that must not import scipy: its import costs more than everything else
# these commands do.  scipy.special is imported only inside the functions
# that call it.
SCIPY_FREE_RUNS = [
    ["klbound", "--astar", "100", "--gamma", "0.99"],
    ["sampling-error", "--n", "2,16,256"],
    ["scaling", "--rewards", "{rewards}", "--beta", "1.0", "--phi-grid", "0.5:3:26"],
    ["losscheck", "--t-grid=-0.5:0.5:21"],
    ["train", "--env", "chain:4", "--lr", "0.5", "--epochs", "5"],
    ["train", "--env", "chain:4", "--lr", "0.5", "--epochs", "5", "--approximator", "mlp"],
]


def test_light_commands_never_import_scipy(tmp_path):
    rewards = write_values(tmp_path / "rewards.csv", [1.0] + [-1.0] * 10)
    runs = [[rewards if a == "{rewards}" else a for a in argv] + ["--out", str(tmp_path / f"run{i}")]
            for i, argv in enumerate(SCIPY_FREE_RUNS)]
    # one interpreter for every run; its last stdout line is the exit codes,
    # the scipy and concurrent modules it ended up with and its threads.  No
    # light command reaches 2**15 points, so none starts the worker thread of
    # the two-half kernels, or pays for concurrent.futures (about 5 ms).
    child = (
        "import json, sys, threading\n"
        "from belldist.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "found = [sorted(m for m in sys.modules if m.split('.')[0] == top) for top in ('scipy', 'concurrent')]\n"
        "print(json.dumps([codes, *found, threading.active_count()]))\n"
    )
    src = str(Path(belldist.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", child, json.dumps(runs)], env=env,
                          capture_output=True, text=True, check=True)
    codes, scipy_modules, concurrent_modules, threads = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(runs)
    assert scipy_modules == []
    assert concurrent_modules == []
    assert threads == 1


def test_klbound_json(tmp_path, capsys):
    rc = run_cli(["klbound", "--astar", "100", "--gamma", "0.99", "--out", str(tmp_path)])
    assert rc == 0
    payload = read_json(tmp_path / "klbound.json")
    assert payload["bound"] < 13.0
    assert payload["numeric_kl"] <= payload["bound"]
    assert payload["branch"] == "APositive"
    assert (tmp_path / "run_manifest.json").exists()


def test_sampling_error_table(tmp_path):
    rc = run_cli(["sampling-error", "--n", "2,256", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sampling_error.csv").read_text().splitlines()
    assert lines[0] == "n,s_e"
    n2 = float(lines[1].split(",")[1])
    n256 = float(lines[2].split(",")[1])
    assert n2 == pytest.approx(2e-2, abs=1e-2)
    assert n256 == pytest.approx(1e-6, abs=1e-6)


def test_example1_outputs_and_byte_identical_rerun(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = run_cli(["example1", "--seed", "7", "--iters", "4", "--out", str(out)])
        assert rc == 0
    names = [f"errors_t{t}.csv" for t in range(1, 5)] + [f"fits_t{t}.json" for t in range(1, 5)]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "errors_t1.csv").read_text().splitlines()[0]
    assert header == "t,state,action,eps_gap,bellman_err"
    manifest = read_json(out1 / "run_manifest.json")
    assert manifest["subcommand"] == "example1"
    assert manifest["seed"] == 7
    assert manifest["args"]["init"] == "normal"  # defaults echoed
    assert len(manifest["outputs"]) == 8
    assert not list(out1.glob("*.tmp"))  # every write was renamed into place


def test_fit_roundtrip(tmp_path):
    values = sample(DistSpec(Family.LOGISTIC, 1.0, 0.5), 20_000, seed=3).values
    data_path = write_values(tmp_path / "data.csv", values)
    rc = run_cli(["fit", "--input", data_path, "--out", str(tmp_path)])
    assert rc == 0
    reports = read_json(tmp_path / "fit_reports.json")
    assert reports[0]["family"] == "logistic"
    summary = (tmp_path / "fit_summary.csv").read_text().splitlines()
    assert summary[0] == "family,r2,sse,rmse,ks,location,scale,n_bins,n_samples"
    assert len(summary) == 4


def test_normal_max_with_mc(tmp_path):
    rc = run_cli([
        "normal-max", "--n", "4096", "--mc", "20000", "--seed", "5", "--out", str(tmp_path)
    ])
    assert rc == 0
    payload = read_json(tmp_path / "normal_max.json")
    assert payload["n"] == 4096
    assert payload["a_n"] > 0 and payload["b_n"] > 3.0
    assert set(payload["intermediates"]) == {"theta", "c", "d0", "d1", "d2", "beta_n"}
    assert payload["mc"]["ks"] < 0.03


def test_scaling_outputs(tmp_path):
    rewards_path = write_values(tmp_path / "rewards.csv", [1.0] + [-1.0] * 10)
    rc = run_cli([
        "scaling", "--rewards", rewards_path, "--beta", "1.0",
        "--phi-grid", "0.5:3:26", "--out", str(tmp_path),
    ])
    assert rc == 0
    summary = read_json(tmp_path / "scaling_summary.json")
    assert summary["cond1"] and summary["cond2"]
    assert summary["phi_star"] == pytest.approx(math.log(10.0) / 2.0, abs=1e-9)
    lines = (tmp_path / "scaling_curve.csv").read_text().splitlines()
    assert lines[0] == "phi,expected_error,below_regime"
    assert len(lines) == 27


def test_losscheck_grid(tmp_path):
    rc = run_cli(["losscheck", "--t-grid=-0.5:0.5:21", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "losscheck.csv").read_text().splitlines()
    assert lines[0] == "t,lloss,mse_plus_ln4,gap"
    mid = lines[11].split(",")  # t = 0 row
    assert float(mid[0]) == 0.0
    assert float(mid[3]) == pytest.approx(0.0, abs=1e-15)


def test_train_and_outputs(tmp_path):
    rc = run_cli([
        "train", "--env", "chain:4", "--loss", "lloss", "--sigma", "1.0",
        "--lr", "0.5", "--epochs", "60", "--seed", "1", "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "reward_curve.csv").read_text().splitlines()
    assert lines[0] == "epoch,reward"
    policy = read_json(tmp_path / "policy.json")
    assert policy["greedy_policy"] == [0, 0, 0, 0]
    error_files = list(tmp_path.glob("bellman_errors_epoch*.csv"))
    assert error_files  # consumable by `fit`
    rc2 = run_cli(["fit", "--input", str(sorted(error_files)[-1]), "--out", str(tmp_path / "fits")])
    assert rc2 == 0


def test_train_rerun_byte_identical(tmp_path):
    args = lambda out: [
        "train", "--env", "dag:8,3", "--lr", "0.4", "--epochs", "40",
        "--seed", "9", "--out", str(out),
    ]
    run_cli(args(tmp_path / "x"))
    run_cli(args(tmp_path / "y"))
    a = (tmp_path / "x" / "reward_curve.csv").read_bytes()
    b = (tmp_path / "y" / "reward_curve.csv").read_bytes()
    assert a == b


def test_compare_smoke(tmp_path):
    rc = run_cli([
        "compare", "--env", "chain:3", "--lr", "0.5", "--epochs", "50",
        "--seeds", "0,1", "--out", str(tmp_path),
    ])
    assert rc == 0
    payload = read_json(tmp_path / "comparison.json")
    assert len(payload["per_seed_mse"]) == 2
    assert "enhancement" in payload


def test_mdp_json_env_loading(tmp_path):
    from belldist.mdp import make_chain

    env_path = tmp_path / "env.json"
    env_path.write_text(mdp_json(make_chain(3)))
    rc = run_cli([
        "train", "--env", str(env_path), "--lr", "0.5", "--epochs", "30",
        "--seed", "0", "--out", str(tmp_path),
    ])
    assert rc == 0


def test_every_subcommand_accepts_seed_and_reruns_identically(tmp_path):
    values = sample(DistSpec(Family.NORMAL, 0.0, 1.0), 500, seed=1).values
    data_path = write_values(tmp_path / "vals.csv", values)
    invocations = [
        ["sampling-error", "--n", "4,8", "--seed", "3"],
        ["klbound", "--astar", "2", "--gamma", "0.95", "--seed", "3"],
        ["losscheck", "--t-grid", "0:0.5:5", "--seed", "3"],
        ["fit", "--input", data_path, "--seed", "3"],
    ]
    for i, argv in enumerate(invocations):
        d1, d2 = tmp_path / f"r{i}a", tmp_path / f"r{i}b"
        assert run_cli(argv + ["--out", str(d1)]) == 0
        assert run_cli(argv + ["--out", str(d2)]) == 0
        for f in d1.iterdir():
            if f.name != "run_manifest.json":  # manifest records wall time
                assert f.read_bytes() == (d2 / f.name).read_bytes(), f.name


# SHA-256 over the output files (name and bytes, manifest excluded) of the
# runs in test_outputs_match_pinned_digest, taken after the Gumbel and
# Logistic fits became one Newton ascent in 1/scale and location/scale, which
# moved the fit and example1 files.  Tabular runs only, so no output depends
# on BLAS.
PINNED_RUNS = [
    ["klbound", "--astar", "100", "--gamma", "0.99"],
    ["sampling-error", "--n", "2,16,256"],
    ["scaling", "--rewards", "{rewards}", "--beta", "1.0", "--phi-grid", "0.5:3:26"],
    ["losscheck", "--t-grid=-0.5:0.5:21"],
    ["example1", "--seed", "7", "--iters", "2"],
    ["fit", "--input", "{values}", "--bins", "fd"],
    ["train", "--env", "chain:4", "--loss", "lloss", "--lr", "0.5", "--epochs", "30",
     "--seed", "1"],
    ["compare", "--env", "dag:8,3", "--lr", "0.5", "--epochs", "20", "--seeds", "0,1"],
]
OUTPUTS_DIGEST = "42cbbd1e51443c2ec433c5f93925d3d883d73054a2803953c51bda3708b6af00"
# s_e at n = 2, 16, 256 as the sampling-error run wrote them when every one
# of the n - 1 segments was evaluated
OLD_SAMPLING_ERRORS = np.array([0.018941421369995104, 0.00031690728890739346,
                                1.253858732393636e-06])
# (location, scale, KS) of every fit report these runs write, in the order
# read below, from the fits that summed with np.sum and accepted a Logistic
# trial only within 1e-12 of the current log-likelihood
OLD_REPORTED_FITS = np.array([
    (0.9871964531131525, 0.4973415856772187, 0.01568248746170159),
    (0.978459296256545, 0.8974547014689093, 0.029452219058603735),
    (0.5250688934862082, 0.957357467333666, 0.08654964679651977),
    (-0.41109397897862787, 0.2581831481066936, 0.0165647466914412),
    (-0.2881397747114052, 0.17348882690550277, 0.03812093241266565),
    (-0.2662140854144562, 0.3124247746637894, 0.0567948500513219),
    (2.724852965770499, 0.21472601006126596, 0.016121140946423973),
    (2.7160679046600293, 0.38332520531587505, 0.028301904656004684),
    (2.5201746820872004, 0.42048739994140355, 0.09223431336517607),
    (2.3423631426514153, 0.17533962075871398, 0.010618343619138382),
    (2.4248505045869213, 0.11990325789984048, 0.04330898083899219),
    (2.442140836969151, 0.21790224209357517, 0.06472544093815014),
    (2.2513976677526677, 0.15720504627173823, 0.011586333325841636),
    (2.2468656345884415, 0.2817900580083439, 0.025796195263330546),
    (2.103682205295925, 0.30823823488605073, 0.08845368360731076),
])


def reported_fits(run_dir: Path) -> np.ndarray:
    """(location, scale, KS) of the ``fit`` run's reports, then example1's t = 1, 2."""
    reports = read_json(run_dir / "run5" / "fit_reports.json")
    for t in (1, 2):
        fits = read_json(run_dir / "run4" / f"fits_t{t}.json")
        reports += fits["eps_gap"] + fits["bellman_err"]
    return np.array([(r["location"], r["scale"], r["ks"]) for r in reports])


def test_outputs_match_pinned_digest(tmp_path):
    inputs = {
        "{rewards}": write_values(tmp_path / "rewards.csv", [1.0] + [-1.0] * 10),
        "{values}": write_values(tmp_path / "values.csv",
                                 sample(DistSpec(Family.LOGISTIC, 1.0, 0.5), 2000, seed=3).values),
    }
    h = hashlib.sha256()
    for i, argv in enumerate(PINNED_RUNS):
        out = tmp_path / f"run{i}"
        assert run_cli([inputs.get(a, a) for a in argv] + ["--out", str(out)]) == 0
        for f in sorted(out.iterdir()):
            if f.name != "run_manifest.json":  # manifest records wall time
                h.update(f.name.encode() + b"\0" + f.read_bytes())
    np.testing.assert_allclose(reported_fits(tmp_path), OLD_REPORTED_FITS, rtol=1e-8, atol=0.0)
    sampling_errors = np.loadtxt(tmp_path / "run1" / "sampling_error.csv", delimiter=",",
                                 skiprows=1)
    np.testing.assert_array_equal(sampling_errors[:, 0], [2, 16, 256])
    np.testing.assert_allclose(sampling_errors[:, 1], OLD_SAMPLING_ERRORS, rtol=1e-10, atol=0.0)
    assert h.hexdigest() == OUTPUTS_DIGEST
