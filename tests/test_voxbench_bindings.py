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

import numpy as np

import voxlab.drivers as drivers
import voxlab.evalcover as evalcover
from voxlab.drivers import SpanrlSchedule, VoxSchedule
from voxlab.optdesign import DesignState
from voxlab.replearn import RepLearnDataset, RepLearnResult
from voxlab.simenv import combination_lock, make_feature_class, sample_trajectories
from voxlab.spanner import SpannerState

from conftest import PinnedConfig, small_env

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


def test_every_traced_span_is_entered_by_micro_runs(monkeypatch):
    # a binding that no library path reaches reads 0 in every traced run.
    # Exempt: the BCLS binding, which no library path calls since the fits
    # went through a stacked factor (its `*.bcls` metrics read 0; the next
    # benchmark change rebinds them, ROADMAP item 2(a)).
    tracing = load("tracing", monkeypatch)
    M = small_env(seed=3, H=3, A=2, d=2, states=(3, 4, 4), boost=0.6)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    # a tiny pinned threshold keeps rep-learn past its first search, into
    # feature selection
    replearn = PinnedConfig(restarts=2, grad_steps=10, eps_stat=1e-3, max_iters=2)
    tracer = tracing.Tracer()
    with tracer.patched():
        drivers.run_vox(M, Phi, VoxSchedule(K=1, gamma=0.02, n_replearn=300,
                                            n_estmat=200, n_psdp=300,
                                            fw_max_iters=200, replearn=replearn),
                        rng)
        covers = drivers.run_spanrl(M, Phi, 0.1, SpanrlSchedule(
            n_replearn=300, n_estvec=200, n_psdp=300, replearn=replearn),
            rng).covers
        drivers.optimize_reward(M, covers, [np.array([1.0, 0.0])] * 2, Phi, 300, rng)
        evalcover.check_policy_cover(M, covers.distribution(2), 2, alpha=0.0,
                                     eps=0.0, mode="max")
    calls = {name: stat["calls"] for name, stat in tracer.stats().items()}
    assert [name for _, _, name in tracing.TRACED if not calls.get(name)] == []
