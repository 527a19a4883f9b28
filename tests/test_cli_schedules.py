"""The CLI reads every schedule field from the config, checked by its type."""

import dataclasses
import json
import typing

import pytest

from voxlab import cli
from voxlab.drivers import SpanrlSchedule, VoxSchedule

CONFIGS = {
    "run-vox": {"K": 2, "gamma": 0.02, "n_replearn": 400, "n_estmat": 300,
                "n_psdp": 400},
    "run-spanrl": {"eps": 0.05, "n_replearn": 600, "n_estvec": 400,
                   "n_psdp": 600},
}

CASES = [
    pytest.param(command, cls, f, id=f"{command}-{f.name}")
    for command, cls in (("run-vox", VoxSchedule), ("run-spanrl", SpanrlSchedule))
    for f in dataclasses.fields(cls) if f.name != "replearn"
]


class Reached(Exception):
    """Raised by the stand-in driver with the arguments it was given."""


def _stand_in(*args):
    raise Reached(*args)


@pytest.fixture(scope="module")
def env_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("schedules") / "env.json"
    assert cli.main(["generate-env", "--H", "3", "--A", "2", "--d", "2",
                     "--states", "3,4,4", "--seed", "7", "--out", str(path)]) == 0
    return path


def _run(monkeypatch, tmp_path, env_path, command, name, value):
    monkeypatch.setattr(cli, "run_vox", _stand_in)
    monkeypatch.setattr(cli, "run_spanrl", _stand_in)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIGS[command], name: value}))
    return cli.main([command, "--env", str(env_path), "--config", str(config),
                     "--out", str(tmp_path / "run.json")])


@pytest.mark.parametrize("command, cls, f", CASES)
def test_a_string_schedule_value_exits_2_naming_the_field(
        monkeypatch, tmp_path, capsys, env_path, command, cls, f):
    assert _run(monkeypatch, tmp_path, env_path, command, f.name, "1") == 2
    assert f"config {f.name} must be" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()


@pytest.mark.parametrize("command, cls, f", CASES)
def test_a_schedule_value_reaches_the_driver(monkeypatch, tmp_path, env_path,
                                             command, cls, f):
    hint = typing.get_type_hints(cls)[f.name]
    base = CONFIGS[command].get(f.name, f.default)
    if int in (typing.get_args(hint) or (hint,)):
        value = (base or 0) + 3
    else:
        value = 0.75 * base
    assert value != f.default
    with pytest.raises(Reached) as exc:
        _run(monkeypatch, tmp_path, env_path, command, f.name, value)
    schedule, = [a for a in exc.value.args if isinstance(a, cls)]
    assert getattr(schedule, f.name) == value
