"""Span tracer that measures voxlab's modules from outside.

Every voxlab module binds the functions it calls in its own namespace
(``from voxlab.psdp import psdp`` and the like), so wrapping only the
defining module would miss most call sites.  ``Tracer.patched`` therefore
replaces every binding, in every loaded ``voxlab`` module, that is one of
the traced functions, plus ``RepLearnDataset.collect`` on its class, and
restores the originals on exit.  Nothing is patched at import time.

Spans (name, start, end, parent, root) are kept in flat in-memory arrays
and written out once, at the end, by ``Tracer.save``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (defining module, attribute, span name)
TRACED = [
    ("voxlab.drivers", "run_vox", "drivers.run_vox"),
    ("voxlab.drivers", "run_spanrl", "drivers.run_spanrl"),
    ("voxlab.drivers", "optimize_reward", "drivers.optimize_reward"),
    ("voxlab.replearn", "rep_learn", "replearn.rep_learn"),
    ("voxlab.replearn", "discriminator_search", "replearn.discriminator_search"),
    ("voxlab.replearn", "feature_selection", "replearn.feature_selection"),
    ("voxlab.psdp", "psdp", "psdp.psdp"),
    ("voxlab.psdp", "fit_value_class", "psdp.fit_value_class"),
    ("voxlab.estimators", "est_mat", "estimators.est_mat"),
    ("voxlab.estimators", "est_vec", "estimators.est_vec"),
    ("voxlab.optdesign", "fw_optdesign", "optdesign.fw_optdesign"),
    ("voxlab.spanner", "robust_spanner", "spanner.robust_spanner"),
    ("voxlab.simenv", "sample_trajectories", "simenv.sample_trajectories"),
    ("voxlab.simenv", "max_occupancies", "simenv.max_occupancies"),
    ("voxlab.evalcover", "check_policy_cover", "evalcover.check_policy_cover"),
]
# The least-squares solver is named after the module that calls it, so the
# rep-learn solves and the PSDP solves show up separately.
BCLS = ("voxlab.psdp", "ball_constrained_least_squares")
DRIVER_SPANS = ("drivers.run_vox", "drivers.run_spanrl", "drivers.optimize_reward")


class Tracer:
    """Records nested spans and per-layer work counts while patched in."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("l")
        self._parent = array("l")
        self._root = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._root.append(self._stack[0] if self._stack else idx)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0.0) + value

    @contextmanager
    def span(self, name):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        nid = self._id(name)
        before, after = self._hooks(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(out)
            return out

        return wrapper

    def _hooks(self, fn, name):
        """Work counters recorded at the boundary of some traced calls."""
        if name == "simenv.sample_trajectories":
            sig = inspect.signature(fn)

            def before(args, kwargs):
                bound = sig.bind(*args, **kwargs).arguments
                M, n = bound["M"], int(bound["n"])
                upto = bound.get("upto")
                upto = M.H - 1 if upto is None else upto
                self.add("sample.episodes", n)
                self.add("sample.steps", n * (upto + 1))

            return before, None
        if name == "replearn.rep_learn":
            return None, lambda res: self.add("replearn.iters", res.iterations)
        if name == "optdesign.fw_optdesign":
            def after(state):
                self.add("fw.iters", state.iterations)
                self.add("fw.support", state.support_size)
                self.add("fw.designs", 1)
            return None, after
        if name == "spanner.robust_spanner":
            def after(state):
                self.add("spanner.rounds", state.rounds)
                self.add("spanner.oracle_calls", state.oracle_calls)
            return None, after
        return None, None

    @contextmanager
    def patched(self):
        """Wrap every voxlab binding of the traced functions; undo in finally."""
        from voxlab.replearn import RepLearnDataset

        plan = {}
        for home, attr, name in TRACED:
            fn = getattr(importlib.import_module(home), attr)
            plan[id(fn)] = (fn, name)
        bcls = getattr(importlib.import_module(BCLS[0]), BCLS[1])
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "voxlab" or key.startswith("voxlab."))]
        undo = []
        try:
            for mod in modules:
                short = mod.__name__.rsplit(".", 1)[-1]
                for attr, value in list(vars(mod).items()):
                    fn, name = plan.get(id(value), (None, None))
                    if value is bcls:
                        name = f"{short}.bcls"
                    elif fn is not value:
                        continue
                    undo.append((mod, attr, value))
                    setattr(mod, attr, self._wrap(value, name))
            collect = RepLearnDataset.__dict__["collect"]
            undo.append((RepLearnDataset, "collect", collect))
            RepLearnDataset.collect = classmethod(
                self._wrap(collect.__func__, "replearn.collect"))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def stats(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        name = np.asarray(self._name, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        dur = np.asarray(self._end) - np.asarray(self._start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        if nested.any():
            child = np.bincount(parent[nested], weights=dur[nested],
                                minlength=dur.size)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {n: {"calls": int(calls[i]), "s": float(total[i]),
                    "self_s": float(self_s[i])}
                for i, n in enumerate(self.names)}

    def save(self, path):
        """Write every span to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.asarray(self._name, dtype=np.int64),
            parent=np.asarray(self._parent, dtype=np.int64),
            root=np.asarray(self._root, dtype=np.int64),
            start=np.asarray(self._start),
            end=np.asarray(self._end),
        )


def layer_metrics(tracer, names, sweeps, overhead_s):
    """Per-layer metrics, per traced sweep, for the given metric names.

    ``<span>.<calls|s|self_s>`` reads the span statistics directly; the
    other names are the work counts recorded by the call hooks.
    """
    stats, counts = tracer.stats(), tracer.counts
    per_sweep = {
        "replearn.rep_learn.iters": counts.get("replearn.iters", 0.0),
        "simenv.sample_trajectories.episodes": counts.get("sample.episodes", 0.0),
        "simenv.sample_trajectories.steps": counts.get("sample.steps", 0.0),
        "optdesign.fw_iters": counts.get("fw.iters", 0.0),
        "spanner.rounds": counts.get("spanner.rounds", 0.0),
        "spanner.oracle_calls": counts.get("spanner.oracle_calls", 0.0),
        "drivers.self_s": sum(stats.get(n, {}).get("self_s", 0.0)
                              for n in DRIVER_SPANS),
    }
    busy = stats.get("simenv.sample_trajectories", {}).get("s", 0.0)
    designs = counts.get("fw.designs", 0.0)
    ratios = {
        "simenv.sample_trajectories.steps_per_s":
            counts.get("sample.steps", 0.0) / busy if busy else 0.0,
        "optdesign.support":
            counts.get("fw.support", 0.0) / designs if designs else 0.0,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name in names:
        if name in per_sweep:
            out[name] = per_sweep[name] / sweeps
        elif name in ratios:
            out[name] = ratios[name]
        else:
            span, stat = name.rsplit(".", 1)
            out[name] = stats.get(span, {}).get(stat, 0) / sweeps
    return out
