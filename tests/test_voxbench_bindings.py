"""The library names the benchmark in `voxbench/` binds by name.

The tracer looks these up only when a run asks for `--trace 1`, so a
renamed or deleted function would otherwise break only traced runs.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from voxlab.optdesign import DesignState
from voxlab.replearn import RepLearnDataset, RepLearnResult
from voxlab.simenv import combination_lock, sample_trajectories
from voxlab.spanner import SpannerState

VOXBENCH = Path(__file__).resolve().parent.parent / "voxbench"


def load(name, monkeypatch):
    """Import voxbench/<name>.py by path, registered for this test only."""
    spec = importlib.util.spec_from_file_location(f"voxbench_{name}",
                                                  VOXBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_resolve(monkeypatch):
    tracing = load("tracing", monkeypatch)
    bindings = [(home, attr) for home, attr, _ in tracing.TRACED] + [tracing.BCLS]
    for home, attr in bindings:
        assert callable(getattr(importlib.import_module(home), attr)), (home, attr)
    assert isinstance(RepLearnDataset.__dict__["collect"], classmethod)
    assert {"M", "n", "upto"} <= set(inspect.signature(sample_trajectories).parameters)


def test_workload_module_loads(monkeypatch):
    # its module-level schedules use VoxSchedule, SpanrlSchedule and
    # RepLearnConfig fields by keyword
    workloads = load("workloads", monkeypatch)
    assert workloads.VOX_SCHEDULE.fw_max_iters == 60


def test_the_library_lock_equals_the_benchmark_copy(monkeypatch):
    # the benchmark keeps its own frozen lock; the library's draws the same
    workloads = load("workloads", monkeypatch)
    for seed in (0, 7001, 2**31 + 5):
        ours = combination_lock(6, 4, 2, seed)
        theirs = workloads.combination_lock(6, 4, 2, seed)
        assert ours.layers == theirs.layers
        assert ours.rho.tobytes() == theirs.rho.tobytes()
        for t in range(ours.H - 1):
            assert ours.phi[t].tobytes() == theirs.phi[t].tobytes()
            assert ours.mu[t].tobytes() == theirs.mu[t].tobytes()


def test_result_fields_the_tracer_hooks_read():
    # the `--trace 1` hooks read these off each traced call's return value
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert "iterations" in fields(DesignState)
    assert isinstance(DesignState.support_size, property)
    assert {"rounds", "oracle_calls"} <= fields(SpannerState)
    assert "iterations" in fields(RepLearnResult)
