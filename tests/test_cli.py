"""Command-line entry points: artifacts, exit codes, determinism."""

import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from voxlab.cli import _config, _replearn_config, _typed, main
from voxlab.core import LayeredLowRankMDP, validate_mdp
from voxlab.drivers import VoxSchedule
from voxlab.replearn import RepLearnConfig

from conftest import patch_sampler

VOX_CONFIG = {
    "K": 2,
    "gamma": 0.02,
    "n_replearn": 400,
    "n_estmat": 300,
    "n_psdp": 400,
    "fw_max_iters": 200,
    "replearn": {"restarts": 2, "grad_steps": 10},
}

SPANRL_CONFIG = {
    "eps": 0.05,
    "n_replearn": 600,
    "n_estvec": 400,
    "n_psdp": 600,
    "replearn": {"restarts": 2, "grad_steps": 10},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main(["generate-env", "--H", "3", "--A", "2", "--d", "2",
               "--states", "3,4,4", "--seed", "7", "--boost-eta", "0.5",
               "--out", str(root / "env.json")])
    assert rc == 0
    (root / "vox.json").write_text(json.dumps(VOX_CONFIG))
    (root / "spanrl.json").write_text(json.dumps(SPANRL_CONFIG))
    return root


@pytest.fixture(scope="module")
def vox_run(workdir):
    out = workdir / "vox_run.json"
    rc = main(["run-vox", "--env", str(workdir / "env.json"),
               "--config", str(workdir / "vox.json"), "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    return out


def test_generate_env_writes_valid_mdp(workdir):
    M = LayeredLowRankMDP.from_json((workdir / "env.json").read_text())
    assert validate_mdp(M) == []
    assert M.H == 3 and M.A == 2 and M.d == 2


def test_generate_env_rejects_wrong_state_count(workdir):
    rc = main(["generate-env", "--H", "3", "--A", "2", "--d", "2",
               "--states", "3,4", "--seed", "0",
               "--out", str(workdir / "bad_env.json")])
    assert rc == 2


def test_selftest_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # the CLI is the five commands that make or read artifacts
    monkeypatch.chdir(tmp_path)
    assert main(["selftest"]) == 2
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    choices = re.fullmatch(r"voxlab: error: argument command: invalid choice: "
                           r"'selftest' \(choose from (.*)\)", errors[0]).group(1)
    assert [c.strip("'") for c in choices.split(", ")] == [
        "generate-env", "run-vox", "run-spanrl", "optimize-reward", "verify-cover"]
    assert out == ""
    assert list(tmp_path.iterdir()) == []


# the run file is the one record of a run: what it holds once, it holds
# nowhere else (the kind is covers.kind, the certificates are log columns);
# env_sha256 names the environment it was built on
RUN_KEYS = {"alphas", "covers", "env_sha256", "episode_count", "log", "seed"}


def test_vox_run_payload_structure(vox_run):
    obj = json.loads(vox_run.read_text())
    assert set(obj) == RUN_KEYS
    assert obj["covers"]["kind"] == "vox"
    assert obj["seed"] == 3
    assert obj["episode_count"] > 0
    assert len(obj["log"]) == VOX_CONFIG["K"]
    assert set(obj["alphas"]) == {"2"}


def test_vox_rerun_is_byte_identical(workdir, vox_run):
    again = workdir / "vox_run_again.json"
    rc = main(["run-vox", "--env", str(workdir / "env.json"),
               "--config", str(workdir / "vox.json"), "--seed", "3",
               "--out", str(again)])
    assert rc == 0
    assert again.read_bytes() == vox_run.read_bytes()


def test_run_vox_rejects_csv_before_drawing_or_writing(workdir, tmp_path,
                                                      capsys, monkeypatch):
    # the Frank-Wolfe traces are the run file's log rows; there is no copy
    _no_episodes(monkeypatch)
    assert main(["run-vox", "--env", str(workdir / "env.json"),
                 "--config", str(workdir / "vox.json"),
                 "--out", str(tmp_path / "x.json"),
                 "--csv", str(tmp_path / "trace.csv")]) == 2
    assert "unrecognized arguments: --csv" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_cover_exit_codes_and_witnesses(workdir, vox_run):
    rep = workdir / "verify.json"
    rc = main(["verify-cover", "--env", str(workdir / "env.json"),
               "--run", str(vox_run), "--alpha", "0.001", "--eps", "0.0",
               "--out", str(rep)])
    assert rc == 0
    payload = json.loads(rep.read_text())
    assert payload["passed"] is True
    assert payload["layers"]["2"]["passed"] is True

    rc = main(["verify-cover", "--env", str(workdir / "env.json"),
               "--run", str(vox_run), "--alpha", "0.999", "--eps", "0.0",
               "--out", str(rep)])
    assert rc == 1
    payload = json.loads(rep.read_text())
    assert payload["passed"] is False
    assert payload["layers"]["2"]["witnesses"]


def test_verify_cover_writes_its_report_to_stdout_on_out_dash(workdir, vox_run,
                                                               capsys):
    args = ["verify-cover", "--env", str(workdir / "env.json"), "--run", str(vox_run),
            "--alpha", "0.001"]
    assert main(args + ["--out", "-"]) == 0
    out = capsys.readouterr().out
    report = workdir / "report.json"
    assert main(args + ["--out", str(report)]) == 0
    assert out == report.read_text() and json.loads(out)["passed"] is True


def test_a_layer_with_no_qualifying_state_reports_a_null_alpha(workdir, vox_run,
                                                               tmp_path):
    # no state reaches eps = 1e9, so the measured alpha is not finite and
    # is written as JSON's null
    report = tmp_path / "report.json"
    assert main(["verify-cover", "--env", str(workdir / "env.json"),
                 "--run", str(vox_run), "--alpha", "0.001", "--eps", "1e9",
                 "--out", str(report)]) == 0
    assert '"alpha_measured": null' in report.read_text()
    assert json.loads(report.read_text())["layers"]["2"]["alpha_measured"] is None


def test_spanrl_run_and_rerun(workdir):
    first = workdir / "spanrl_run.json"
    second = workdir / "spanrl_run_again.json"
    for out in (first, second):
        rc = main(["run-spanrl", "--env", str(workdir / "env.json"),
                   "--config", str(workdir / "spanrl.json"), "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
    assert first.read_bytes() == second.read_bytes()
    obj = json.loads(first.read_text())
    assert set(obj) == RUN_KEYS
    assert obj["covers"]["kind"] == "spanrl"


def test_optimize_reward_cli(workdir, vox_run):
    theta = workdir / "theta.json"
    theta.write_text(json.dumps([[0.6, 0.8], [1.0, 0.0]]))
    result = workdir / "opt.json"
    rc = main(["optimize-reward", "--env", str(workdir / "env.json"),
               "--config", str(workdir / "vox.json"), "--run", str(vox_run),
               "--theta", str(theta), "--seed", "11", "--out", str(result)])
    assert rc == 0
    payload = json.loads(result.read_text())
    assert np.isfinite(payload["value"])
    assert payload["policy"]["lo"] == 0
    assert len(payload["policy"]["tables"]) == 2


def test_usage_errors_exit_2(workdir):
    assert main(["run-vox", "--bogus"]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["run-vox", "--env", str(workdir / "nope.json"),
                 "--config", str(workdir / "vox.json"),
                 "--out", str(workdir / "x.json")]) == 2

    missing_key = workdir / "missing_key.json"
    missing_key.write_text(json.dumps({"gamma": 0.02}))
    assert main(["run-vox", "--env", str(workdir / "env.json"),
                 "--config", str(missing_key),
                 "--out", str(workdir / "x.json")]) == 2

    broken = workdir / "broken.json"
    broken.write_text("{not json")
    assert main(["run-vox", "--env", str(workdir / "env.json"),
                 "--config", str(broken),
                 "--out", str(workdir / "x.json")]) == 2


def _bad_run(workdir, vox_run, tmp_path, command, config, bad):
    """The arguments of ``command`` on ``config`` with the ``bad`` values
    over it; a ``theta`` entry of ``bad`` is the theta file's content."""
    bad = dict(bad)
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(bad.pop("theta", [[1.0, 0.0], [0.0, 1.0]])))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**config, **bad}))
    extra = (["--run", str(vox_run), "--theta", str(theta)]
             if command == "optimize-reward" else [])
    return [command, "--env", str(workdir / "env.json"), "--config", str(path),
            "--out", str(tmp_path / "x.json")] + extra


@pytest.mark.parametrize("command, config, bad", [
    ("run-vox", VOX_CONFIG, {"replearn": {"restart": 2}}),
    ("run-vox", VOX_CONFIG, {"fw_max_iters": 5.0}),
    ("run-spanrl", SPANRL_CONFIG, {"max_rounds": 5.0}),
    ("run-vox", VOX_CONFIG, {"replearn": {"restarts": "2"}}),
    ("run-vox", VOX_CONFIG, {"K": 2.7}),
    ("run-spanrl", SPANRL_CONFIG, {"n_psdp": 600.5}),
    ("run-vox", VOX_CONFIG, {"gamma": None}),
    ("run-vox", VOX_CONFIG, {"C": None}),
    ("run-spanrl", SPANRL_CONFIG, {"eps": [0.1]}),
    ("run-vox", VOX_CONFIG, {"feature_class": 3}),
    ("optimize-reward", VOX_CONFIG, {"theta": 5}),
    ("run-vox", VOX_CONFIG, {"gamma": "0.001"}),
    ("run-spanrl", SPANRL_CONFIG, {"feature_class": {"n_decoys": 2.7}}),
])
def test_config_errors_exit_2_without_a_traceback(workdir, vox_run, tmp_path,
                                                  command, config, bad):
    proc = subprocess.run(
        [sys.executable, "-m", "voxlab.cli"]
        + _bad_run(workdir, vox_run, tmp_path, command, config, bad),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command, bad", [
    ("run-vox", {"replearn": {"restarts": 2.0}}),
    ("run-vox", {"replearn": {"grad_steps": True}}),
    ("run-vox", {"replearn": {"restarts": "1"}}),
    ("run-spanrl", {"replearn": {"delta": "0.1"}}),
    ("run-spanrl", {"replearn": {"delta": None}}),
    ("run-vox", {"K": 2.7}),
    ("run-vox", {"n_replearn": 400.0}),
    ("run-vox", {"n_estmat": "300"}),
    ("run-vox", {"n_psdp": 400.0}),
    ("run-spanrl", {"n_replearn": 600.0}),
    ("run-spanrl", {"n_estvec": 400.0}),
    ("run-spanrl", {"n_psdp": True}),
    ("optimize-reward", {"n_psdp": 400.0}),
    ("run-vox", {"gamma": None}),
    ("run-vox", {"gamma": "0.001"}),
    ("run-vox", {"C": None}),
    ("run-spanrl", {"C": "2"}),
    ("run-spanrl", {"eps": [0.1]}),
    ("run-vox", {"feature_class": 3}),
    ("run-vox", {"feature_class": {"n_decoys": 2.7}}),
    ("run-spanrl", {"feature_class": {"seed": "1"}}),
    ("run-vox", {"feature_class": {"decoys": 2}}),
    ("optimize-reward", {"theta": 5}),
    ("optimize-reward", {"theta": [[1.0, "0"], [0.0, 1.0]]}),
    ("optimize-reward", {"theta": [1.0, 0.0]}),
])
def test_mistyped_config_values_exit_2_before_running(workdir, vox_run, tmp_path,
                                                      capsys, command, bad):
    config = SPANRL_CONFIG if command == "run-spanrl" else VOX_CONFIG
    rc = main(_bad_run(workdir, vox_run, tmp_path, command, config, bad))
    assert rc == 2
    assert next(iter(bad.get("replearn", bad))) in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command, bad", [
    ("run-vox", {"gamma": 0.0}),
    ("run-vox", {"gamma": 1.0}),
    ("run-spanrl", {"eps": 1.0}),
    ("run-spanrl", {"eps": 1.5}),
    ("run-spanrl", {"eps": 0.0}),
    ("run-vox", {"fw_max_iters": 0}),
    ("run-spanrl", {"replearn": {"delta": 0}}),
    ("run-vox", {"replearn": {"delta": 0}}),
    ("run-vox", {"replearn": {"delta": 1}}),
    ("run-spanrl", {"replearn": {"grad_steps": -1}}),
    ("run-vox", {"replearn": {"grad_steps": -1}}),
    ("run-spanrl", {"replearn": {"restarts": 0}}),
    ("run-vox", {"replearn": {"restarts": -2}}),
    ("run-spanrl", {"replearn": {"delta": 1}}),
    # written as JSON's Infinity and NaN literals, which the loader reads
    ("run-spanrl", {"eps": float("nan")}),
    ("run-spanrl", {"eps": float("inf")}),
    ("run-vox", {"replearn": {"delta": float("inf")}}),
    ("run-spanrl", {"replearn": {"delta": float("inf")}}),
    ("run-vox", {"replearn": {"delta": float("nan")}}),
    ("run-spanrl", {"replearn": {"delta": float("nan")}}),
    ("run-vox", {"gamma": float("nan")}),
])
def test_out_of_range_C_or_eps_exits_2_before_any_episode(
        workdir, vox_run, tmp_path, capsys, monkeypatch, command, bad):
    def no_episodes(*args, **kwargs):
        raise AssertionError("an episode was drawn")

    patch_sampler(monkeypatch, no_episodes)
    config = SPANRL_CONFIG if command == "run-spanrl" else VOX_CONFIG
    assert main(_bad_run(workdir, vox_run, tmp_path, command, config, bad)) == 2
    # a replearn value is named by its field
    name = next(iter(bad))
    if name == "replearn":
        name = f"replearn {next(iter(bad[name]))}"
    assert f"error: {name} must" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command, key, value", [
    ("run-vox", "eps_stat", 0.1),
    ("run-spanrl", "r_big", 5.0),
    ("run-vox", "r_small", 1.0),
    ("run-spanrl", "max_iters", 3),
    ("run-vox", "step_size", 0.5),
    # the threshold's constant is 1: eps_stat^2 = d^2 log(|Phi|/delta)/n
    ("run-spanrl", "c", 1.0),
])
def test_a_removed_replearn_override_is_an_unknown_key(
        workdir, vox_run, tmp_path, capsys, monkeypatch, command, key, value):
    # rep-learn always derives its threshold, radii and iteration cap, and
    # its hill climb's first step and its threshold's constant are
    # constants, so a config that sets one is a usage error, as any unknown
    # key is
    _no_episodes(monkeypatch)
    config = SPANRL_CONFIG if command == "run-spanrl" else VOX_CONFIG
    bad = {"replearn": {"restarts": 2, key: value}}
    assert main(_bad_run(workdir, vox_run, tmp_path, command, config, bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config replearn must be an object with keys from "
                          "['delta', 'grad_steps', 'restarts'], got ")
    assert key in err and err.count("\n") == 1
    assert not (tmp_path / "x.json").exists()


VOX_KEYS = ["K", "feature_class", "fw_max_iters", "gamma", "n_estmat", "n_psdp",
            "n_replearn", "replearn"]
SPANRL_KEYS = ["eps", "feature_class", "n_estvec", "n_psdp", "n_replearn",
               "replearn"]


@pytest.mark.parametrize("command, key, allowed", [
    ("run-vox", "bogus", VOX_KEYS),
    ("run-spanrl", "bogus", SPANRL_KEYS),
    ("optimize-reward", "bogus", sorted(set(VOX_KEYS) | set(SPANRL_KEYS))),
    # neither C nor max_rounds is settable, so a config may not set them
    ("run-vox", "C", VOX_KEYS),
    ("run-spanrl", "C", SPANRL_KEYS),
    ("run-spanrl", "max_rounds", SPANRL_KEYS),
])
def test_an_unknown_top_level_key_exits_2_naming_it_and_the_allowed_keys(
        workdir, vox_run, tmp_path, capsys, monkeypatch, command, key, allowed):
    # a typo would otherwise drop its value silently: {"fw_max_iter": 1}
    # runs with the default cap of 27,635,020 Frank-Wolfe iterations
    _no_episodes(monkeypatch)
    config = SPANRL_CONFIG if command == "run-spanrl" else VOX_CONFIG
    args = _bad_run(workdir, vox_run, tmp_path, command, config, {key: 2.0})
    assert main(args) == 2
    path = args[args.index("--config") + 1]
    assert capsys.readouterr().err == (f"error: config {path} has unknown keys "
                                       f"{[key]}; {command} reads {allowed}\n")
    assert not (tmp_path / "x.json").exists()


def test_optimize_reward_reads_either_run_commands_config(workdir, vox_run, tmp_path):
    # the README hands it vox.json; a spanrl.json, with eps, works the same
    args = _command("optimize-reward", workdir, vox_run, tmp_path)
    args[args.index("--config") + 1] = str(workdir / "spanrl.json")
    assert main(args) == 0
    assert json.loads((tmp_path / "x.json").read_text())["policy"]["lo"] == 0


def _command(command, workdir, run, tmp_path, env=None):
    """The arguments of ``command`` on the workdir's files, with ``run`` as
    its run file and its output at tmp_path / "x.json"."""
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
    args = {"--env": str(env or workdir / "env.json"),
            "--out": str(tmp_path / "x.json")}
    if command in ("run-vox", "run-spanrl", "optimize-reward"):
        name = "spanrl.json" if command == "run-spanrl" else "vox.json"
        args["--config"] = str(workdir / name)
    if command in ("optimize-reward", "verify-cover"):
        args["--run"] = str(run)
    if command == "optimize-reward":
        args["--theta"] = str(theta)
    if command == "verify-cover":
        args["--alpha"] = "0.001"
    return [command] + [x for kv in args.items() for x in kv]


def _no_episodes(monkeypatch):
    def no_episodes(*args, **kwargs):
        raise AssertionError("an episode was drawn")

    patch_sampler(monkeypatch, no_episodes)


@pytest.mark.parametrize("theta", ["[[NaN, 0.0], [0.0, 0.0]]",
                                   "[[0.0, 0.0], [0.0, 0.0], [NaN, 0.0]]"])
def test_a_non_finite_theta_exits_2_and_writes_nothing(
        workdir, vox_run, tmp_path, capsys, monkeypatch, theta):
    # JSON's NaN literal reaches the library as a float
    args = _command("optimize-reward", workdir, vox_run, tmp_path)
    (tmp_path / "theta.json").write_text(theta)
    _no_episodes(monkeypatch)
    assert main(args) == 2
    assert capsys.readouterr().err == "error: reward vectors must be finite\n"
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("theta", [[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                                   [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]])
def test_an_h_length_theta_list_exits_2_and_writes_nothing(
        workdir, vox_run, tmp_path, capsys, monkeypatch, theta):
    # the last layer has no features, so a reward is exactly H-1 vectors,
    # a zero H-th one included
    args = _command("optimize-reward", workdir, vox_run, tmp_path)
    (tmp_path / "theta.json").write_text(json.dumps(theta))
    _no_episodes(monkeypatch)
    assert main(args) == 2
    assert capsys.readouterr().err == "error: need 2 reward vectors, got 3\n"
    assert not (tmp_path / "x.json").exists()


def test_a_misshaped_theta_exits_2_and_writes_nothing(
        workdir, vox_run, tmp_path, capsys, monkeypatch):
    # each reward vector has length d = 2
    args = _command("optimize-reward", workdir, vox_run, tmp_path)
    (tmp_path / "theta.json").write_text(json.dumps([[0.6, 0.0, 0.0], [0.0, 1.0]]))
    _no_episodes(monkeypatch)
    assert main(args) == 2
    assert capsys.readouterr().err == ("error: reward vector at layer 0 has shape "
                                       "(3,), expected (2,)\n")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command", ["run-vox", "run-spanrl", "optimize-reward",
                                     "verify-cover"])
def test_an_invalid_environment_exits_2_and_writes_nothing(
        workdir, vox_run, tmp_path, capsys, monkeypatch, command):
    # doubled rho: every check of the factorization but one still holds
    env = json.loads((workdir / "env.json").read_text())
    env["rho"] = [2.0 * p for p in env["rho"]]
    bad_env = tmp_path / "env.json"
    bad_env.write_text(json.dumps(env))
    _no_episodes(monkeypatch)
    assert main(_command(command, workdir, vox_run, tmp_path, bad_env)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: environment {bad_env} failed validation")
    assert "rho sums to 2, expected 1" in err
    assert not (tmp_path / "x.json").exists()


def _doubled(tab):
    return [[2.0 * p for p in row] for row in tab]


def _negative(tab):
    # the row still sums to 1, so only the sign check can catch it
    return [[row[0] - 1.0, row[1] + 1.0] + row[2:] for row in tab]


def _short(tab):
    return tab[:-1]


@pytest.mark.parametrize("command", ["verify-cover", "optimize-reward"])
@pytest.mark.parametrize("corrupt", [_doubled, _negative, _short])
def test_run_files_whose_policies_are_not_distributions_exit_2(
        workdir, vox_run, tmp_path, capsys, monkeypatch, command, corrupt):
    run = json.loads(vox_run.read_text())
    for layer in run["covers"]["layers"]:
        for pi in layer["policies"]:
            pi["tables"] = [corrupt(tab) for tab in pi["tables"]]
    bad_run = tmp_path / "run.json"
    bad_run.write_text(json.dumps(run))
    _no_episodes(monkeypatch)
    assert main(_command(command, workdir, bad_run, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: run file {bad_run}: layer 0 policy 0 table 0 ")
    assert not (tmp_path / "x.json").exists()


def test_nan_cover_weights_exit_2(workdir, vox_run, tmp_path, capsys):
    # every comparison with NaN is false, so a check written as "fail if
    # weight < 0" or "fail if |sum - 1| > tol" would let these through
    run = json.loads(vox_run.read_text())
    for layer in run["covers"]["layers"]:
        layer["weights"] = [float("nan")] * len(layer["weights"])
    bad_run = tmp_path / "run.json"
    bad_run.write_text(json.dumps(run))
    args = _command("verify-cover", workdir, bad_run, tmp_path)
    args[args.index("--alpha") + 1] = "0.5"
    assert main(args) == 2
    # the error names the run file, once
    err = capsys.readouterr().err
    assert err == f"error: run file {bad_run}: mixture weights must be nonnegative\n"
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("flag, value", [("--alpha", "nan"), ("--eps", "nan"),
                                         ("--alpha", "inf"), ("--eps", "-0.1"),
                                         ("--alpha", "-1")])
def test_a_non_finite_or_negative_threshold_exits_2(workdir, vox_run, tmp_path,
                                                     capsys, flag, value):
    args = _command("verify-cover", workdir, vox_run, tmp_path)
    args += [flag, value]
    assert main(args) == 2
    assert f"error: {flag[2:]} must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_a_run_file_of_another_horizon_exits_2(workdir, vox_run, tmp_path, capsys):
    run = json.loads(vox_run.read_text())
    run["covers"]["H"] = 4
    bad_run = tmp_path / "run.json"
    bad_run.write_text(json.dumps(run))
    assert main(_command("verify-cover", workdir, bad_run, tmp_path)) == 2
    assert "has H = 4, the environment 3" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def _sha256_of(env_path):
    """The SHA-256 of an environment file's JSON text, written with one
    trailing newline."""
    return hashlib.sha256(env_path.read_text().rstrip("\n").encode()).hexdigest()


def test_a_run_file_names_its_environment(workdir, vox_run):
    assert json.loads(vox_run.read_text())["env_sha256"] == _sha256_of(
        workdir / "env.json")


@pytest.mark.parametrize("command", ["verify-cover", "optimize-reward"])
@pytest.mark.parametrize("case", ["missing", "changed", "other-env"])
def test_a_run_file_is_read_only_against_its_own_environment(
        workdir, vox_run, tmp_path, capsys, monkeypatch, command, case):
    # the same-shaped environment of another seed reads every cover table
    # as a table of distributions, so only the hash tells the two apart
    run, env = json.loads(vox_run.read_text()), workdir / "env.json"
    if case == "missing":
        del run["env_sha256"]
    elif case == "changed":
        run["env_sha256"] = "0" * 64
    else:
        env = tmp_path / "other_env.json"
        assert main(["generate-env", "--H", "3", "--A", "2", "--d", "2",
                     "--states", "3,4,4", "--seed", "8", "--boost-eta", "0.5",
                     "--out", str(env)]) == 0
    bad_run = tmp_path / "run.json"
    bad_run.write_text(json.dumps(run))
    _no_episodes(monkeypatch)
    assert main(_command(command, workdir, bad_run, tmp_path, env)) == 2
    assert capsys.readouterr().err == (
        f"error: run file {bad_run} has env_sha256 {run.get('env_sha256')}, the "
        f"environment {_sha256_of(env)}\n")
    assert not (tmp_path / "x.json").exists()


def test_a_spanrl_run_on_one_seed_is_refused_by_the_next(tmp_path, capsys):
    # a SpanRL run built on generate-env --seed 1 once passed verify-cover
    # against the same-shaped --seed 2 environment
    envs = [tmp_path / f"env{seed}.json" for seed in (1, 2)]
    for seed, env in zip((1, 2), envs):
        assert main(["generate-env", "--H", "3", "--A", "2", "--d", "2",
                     "--states", "3,4,4", "--seed", str(seed), "--boost-eta", "0.5",
                     "--out", str(env)]) == 0
    config, run = tmp_path / "spanrl.json", tmp_path / "run.json"
    config.write_text(json.dumps(SPANRL_CONFIG))
    assert main(["run-spanrl", "--env", str(envs[0]), "--config", str(config),
                 "--seed", "5", "--out", str(run)]) == 0
    verify = ["verify-cover", "--run", str(run), "--alpha", "0.01",
              "--out", str(tmp_path / "report.json")]
    assert main(verify + ["--env", str(envs[1])]) == 2
    assert f"the environment {_sha256_of(envs[1])}" in capsys.readouterr().err
    assert main(verify + ["--env", str(envs[0])]) in (0, 1)


def _covers(covers):
    return lambda run: {**run, "covers": covers}


def _layers(cut):
    """A run file whose cover list is ``cut`` of its H layers."""
    return lambda run: {**run, "covers": {**run["covers"],
                                          "layers": cut(run["covers"]["layers"])}}


_SHORT, _LONG = _layers(lambda ls: ls[:-1]), _layers(lambda ls: ls + ls[-1:])


def _first_lo(run):
    """A run file whose first policy starts at layer 0.7 more."""
    run["covers"]["layers"][0]["policies"][0]["lo"] += 0.7
    return run


def _first_id(env):
    """An environment whose first state id is 0.5 larger."""
    first = [env["layers"][0][0] + 0.5, *env["layers"][0][1:]]
    return {**env, "layers": [first, *env["layers"][1:]]}


def _first_id_twice(env):
    """An environment whose layer 1 starts with layer 0's first state id."""
    second = [env["layers"][0][0], *env["layers"][1][1:]]
    return {**env, "layers": [env["layers"][0], second, *env["layers"][2:]]}


def _true_in_phi(env):
    env["phi"][0][0][0][0] = True
    return env


def _as_strings(values):
    return [str(v) for v in values]


def _string_weights(run):
    layer = run["covers"]["layers"][2]
    layer["weights"] = _as_strings(layer["weights"])
    return run


def _string_table(run):
    table = run["covers"]["layers"][2]["policies"][0]["tables"][0]
    table[0] = _as_strings(table[0])
    return run


@pytest.mark.parametrize("command, bad, corrupt, line", [
    ("verify-cover", "run", _covers({"kind": "vox", "H": 3, "layers": 5}), None),
    ("verify-cover", "run", _covers({"kind": "vox", "H": 3, "layers": [5, 6, 7]}), None),
    ("verify-cover", "run", _covers([]), None),
    ("verify-cover", "run", _SHORT, None),
    ("verify-cover", "run", _LONG, None),
    ("optimize-reward", "run", _SHORT, None),
    ("optimize-reward", "run", _LONG, None),
    ("verify-cover", "env", lambda env: {**env, "phi": 5}, None),
    ("verify-cover", "env", lambda env: [env], None),
    ("run-vox", "config", lambda config: [config], None),
    ("run-vox", "config", lambda config: "{not json", None),
    # int() would truncate each of these to a value the command accepts
    ("verify-cover", "run", lambda run: {**run, "covers": {**run["covers"], "H": 3.9}},
     "covers.H must be an integer, got 3.9"),
    ("verify-cover", "run", _first_lo, "policy lo must be an integer, got 0.7"),
    ("verify-cover", "env", lambda env: {**env, "A": 2.7}, "A must be an integer, got 2.7"),
    ("verify-cover", "env", lambda env: {**env, "H": 3.2}, "H must be an integer, got 3.2"),
    ("verify-cover", "env", lambda env: {**env, "d": True}, "d must be an integer, got True"),
    ("verify-cover", "env", _first_id, "layer id must be an integer, got 0.5"),
    # np.asarray(dtype=float) would read "0.25" as 0.25 and true as 1.0
    ("verify-cover", "env", lambda env: {**env, "rho": _as_strings(env["rho"])},
     "rho must hold numbers, got '"),
    ("verify-cover", "env", _true_in_phi, "phi[0] must hold numbers, got True"),
    ("verify-cover", "run", _string_weights,
     "covers.layers[2].weights must hold numbers, got '"),
    ("optimize-reward", "run", _string_table, "policy table must hold numbers, got '"),
    # state ids are global: one id in two layers fails validation
    ("verify-cover", "env", _first_id_twice, "state id 0 is in layer 0 and layer 1"),
], ids=["layers-int", "layers-of-ints", "covers-list", "verify-short-covers",
        "verify-long-covers", "optimize-short-covers", "optimize-long-covers",
        "phi-int", "env-list", "config-list", "config-not-json", "covers-H-float",
        "policy-lo-float", "env-A-float", "env-H-float", "env-d-bool",
        "layer-id-float", "rho-string", "phi-true", "weights-string",
        "policy-table-string", "layer-id-twice"])
def test_structurally_malformed_json_exits_2_naming_the_file(
        workdir, vox_run, tmp_path, capsys, monkeypatch, command, bad, corrupt,
        line):
    # each file but the last parses as JSON but has the wrong shape inside;
    # a str from ``corrupt`` is written as it is.  A cover list holds
    # exactly H layers, one per layer of the environment, an integer field
    # holds a JSON integer and a number array JSON numbers, and the error
    # line names the field
    _no_episodes(monkeypatch)
    args = _command(command, workdir, vox_run, tmp_path)
    i = args.index(f"--{bad}") + 1
    path = tmp_path / f"bad_{bad}.json"
    with open(args[i]) as fh:
        content = corrupt(json.load(fh))
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    args[i] = str(path)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    if line is not None:
        assert f": {line}" in err
    assert not (tmp_path / "x.json").exists()


def test_replearn_config_accepts_ints_for_floats_and_null_for_optionals():
    rl = _replearn_config({"replearn": {"restarts": 3, "delta": 0.1}})
    assert (rl.restarts, rl.delta) == (3, 0.1) and type(rl.restarts) is int
    # every float field is in (0, 1), so no int reaches a config's value,
    # but an int still passes as a float and is returned as one
    assert type(_typed("delta", 1, float)) is float
    assert _replearn_config({}) == RepLearnConfig()
    # null is still accepted for the schedule's optional cap
    vox = _config(VoxSchedule, {**VOX_CONFIG, "fw_max_iters": None})
    assert vox.fw_max_iters is None


def test_help_exits_clean():
    assert main(["--help"]) == 0
