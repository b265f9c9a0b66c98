import json
import math
from pathlib import Path

import numpy as np
import pytest

from belldist import DistSpec, Family, SampleBatch, sample
from belldist.cli import build_parser, main


def run_cli(args: list[str]) -> int:
    return main(args)


def read_json(path: Path):
    return json.loads(path.read_text())


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
], ids=["sampling-error-n", "train-chain", "train-dag", "normal-max-mc", "fit-input",
        "compare-seeds", "train-json-missing", "train-json-fields"])
def test_malformed_input_exit_code_one(tmp_path, capsys, argv):
    missing = str(tmp_path / "no-such-file")
    partial = tmp_path / "partial.json"
    partial.write_text('{"n_states": 2}')
    argv = [a.replace("{missing}", missing).replace("{partial}", str(partial)) for a in argv]
    assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err


def test_fit_bins_must_be_integer(tmp_path, capsys):
    data_path = tmp_path / "values.csv"
    sample(DistSpec(Family.NORMAL, 0.0, 1.0), 200, seed=1).to_csv(data_path)
    argv = ["fit", "--input", str(data_path), "--bins", "abc", "--out", str(tmp_path)]
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


def test_fit_roundtrip(tmp_path):
    data_path = tmp_path / "data.csv"
    sample(DistSpec(Family.LOGISTIC, 1.0, 0.5), 20_000, seed=3).to_csv(data_path)
    rc = run_cli(["fit", "--input", str(data_path), "--out", str(tmp_path)])
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
    rewards_path = tmp_path / "rewards.csv"
    SampleBatch(np.array([1.0] + [-1.0] * 10)).to_csv(rewards_path)
    rc = run_cli([
        "scaling", "--rewards", str(rewards_path), "--beta", "1.0",
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
    env_path.write_text(make_chain(3).to_json())
    rc = run_cli([
        "train", "--env", str(env_path), "--lr", "0.5", "--epochs", "30",
        "--seed", "0", "--out", str(tmp_path),
    ])
    assert rc == 0


def test_every_subcommand_accepts_seed_and_reruns_identically(tmp_path):
    data_path = tmp_path / "vals.csv"
    sample(DistSpec(Family.NORMAL, 0.0, 1.0), 500, seed=1).to_csv(data_path)
    invocations = [
        ["sampling-error", "--n", "4,8", "--seed", "3"],
        ["klbound", "--astar", "2", "--gamma", "0.95", "--seed", "3"],
        ["losscheck", "--t-grid", "0:0.5:5", "--seed", "3"],
        ["fit", "--input", str(data_path), "--seed", "3"],
    ]
    for i, argv in enumerate(invocations):
        d1, d2 = tmp_path / f"r{i}a", tmp_path / f"r{i}b"
        assert run_cli(argv + ["--out", str(d1)]) == 0
        assert run_cli(argv + ["--out", str(d2)]) == 0
        for f in d1.iterdir():
            if f.name != "run_manifest.json":  # manifest records wall time
                assert f.read_bytes() == (d2 / f.name).read_bytes(), f.name
