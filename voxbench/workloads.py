"""The three benchmark workloads: inputs, one timed unit, and exact gates.

A *unit* is one thing a lab user does, timed with its exact check:

- ``vox_readme``: ``run_vox`` with the README schedule on a fresh c07-family
  environment, then ``check_policy_cover`` at layers 2..H-1.
- ``spanrl_lock``: ``run_spanrl`` (c08 schedule and eps) on a fresh
  combination lock, then a max-mode cover check at layers 2..H-1.
- ``plan_lock``: ``optimize_reward`` for one random unit-norm linear reward
  on covers built once during set-up, then its exact gap to the DP optimum.

Every unit's inputs come from ``SeedSequence([seed, i])``, so a workload
seed fixes the whole input stream.  Library calls go through module
attributes (``drivers.run_vox``) so that the tracer's bindings are used.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from voxlab import (
    BudgetError,
    EnvSpec,
    EpisodeCounter,
    LayeredLowRankMDP,
    Policy,
    generate_low_rank_mdp,
    make_feature_class,
    reachability_eta,
    validate_mdp,
)
from voxlab import drivers, evalcover
from voxlab.drivers import SpanrlSchedule, VoxSchedule
from voxlab.replearn import RepLearnConfig

VOX_SCHEDULE = VoxSchedule(K=4, gamma=1e-3, n_replearn=6000, n_estmat=12000,
                           n_psdp=8000, fw_max_iters=60,
                           replearn=RepLearnConfig(restarts=4, grad_steps=30))
SPANRL_SCHEDULE = SpanrlSchedule(n_replearn=6000, n_estvec=6000, n_psdp=6000,
                                 replearn=RepLearnConfig(restarts=4,
                                                         grad_steps=30))
PLAN_EPISODES = 8000
LOCK_H, LOCK_A, LOCK_OBS, N_DECOYS = 6, 4, 2, 2
GAP_TOL = -1e-9


class GateError(Exception):
    """An exact correctness check failed; the benchmark result is invalid."""


def gate(ok, message):
    if not ok:
        raise GateError(message)


def combination_lock(H, A, obs_per_latent, seed):
    """Block-MDP combination lock with two latent states per layer (d = 2).

    Latent 0 ("open") moves to latent 0 only under that layer's secret
    action; every other action, and every action from latent 1, leads to
    latent 1, which absorbs.  Each latent emits ``obs_per_latent``
    observations with Dirichlet weights, in a per-layer shuffled order.
    phi is the one-hot next-latent indicator and mu holds the emission
    columns, so the uniform policy reaches the open latent at layer h with
    probability A^-h.  Kept here, not in the library, so that this
    workload's inputs cannot change when the library grows its own lock.
    """
    rng = np.random.default_rng(seed)
    n = 2 * obs_per_latent
    latent = [rng.permutation(n) // obs_per_latent for _ in range(H)]
    secret = rng.integers(0, A, size=H - 1)
    phi, mu = [], []
    for h in range(H - 1):
        nxt = np.ones((n, A), dtype=int)
        nxt[latent[h] == 0, secret[h]] = 0
        phi.append(np.eye(2)[nxt])
        q = np.zeros((n, 2))
        for z in range(2):
            members = latent[h + 1] == z
            q[members, z] = rng.dirichlet(np.ones(obs_per_latent))
        mu.append(q)
    rho = np.zeros(n)
    rho[latent[0] == 0] = rng.dirichlet(np.ones(obs_per_latent))
    layers = [list(range(h * n, (h + 1) * n)) for h in range(H)]
    return LayeredLowRankMDP(H, A, 2, layers, phi, mu, rho)


def checked_lock(seed):
    """A lock that passes validate_mdp with uniform alpha exactly A^-h."""
    M = combination_lock(LOCK_H, LOCK_A, LOCK_OBS, seed)
    report = validate_mdp(M)
    gate(not report, f"lock {seed} is not a valid MDP: {report[:3]}")
    unif = uniform_alphas(M, range(1, M.H))
    for h, a in zip(range(1, M.H), unif):
        gate(abs(a - float(M.A) ** -h) <= 1e-12,
             f"lock {seed}: uniform alpha {a!r} at layer {h}, want A^-{h}")
    return M, unif[1:]


def uniform_alphas(M, layers):
    unif = Policy.uniform(M, 0, M.H - 1)
    return [evalcover.check_policy_cover(M, unif, h, alpha=0.0, eps=0.0)
            ["alpha_measured"] for h in layers]


def seeds(k, *key):
    """k independent 32-bit seeds derived from the integer key."""
    return [int(s) for s in np.random.SeedSequence(list(key)).generate_state(k)]


@dataclass
class Outcome:
    """What one unit produced; ``payload`` feeds the workload digest."""

    failed: bool
    episodes: int
    payload: bytes
    alpha: float | None = None
    alpha_vs_uniform: float | None = None
    gap: float | None = None
    fw_iters: int | None = None


@dataclass
class Inputs:
    """Prepared units, plus quality and output already fixed in set-up."""

    units: list
    quality: dict = field(default_factory=dict)
    setup_output: bytes = b""


def _cover_quality(M, covers, unif, mode):
    layers = range(2, M.H)
    alphas = [evalcover.check_policy_cover(M, covers.distribution(h), h,
                                           alpha=0.0, eps=0.0, mode=mode)
              ["alpha_measured"] for h in layers]
    return min(alphas), min(a / u for a, u in zip(alphas, unif))


class VoxReadme:
    name = "vox_readme"
    quality_units, prepared_units, nominal_unit_s = 8, 48, 1.4
    setup_repeats = 15

    def setup(self, seed, n_units):
        units = []
        for i in range(n_units):
            env_seed, phi_seed, run_seed = seeds(3, seed, i)
            M = generate_low_rank_mdp(EnvSpec(H=4, A=2, d_latent=2,
                                              state_counts=[4, 5, 5, 5],
                                              seed=env_seed, boost=0.5))
            Phi = make_feature_class(M, n_decoys=N_DECOYS,
                                     rng=np.random.default_rng(phi_seed))
            units.append((M, Phi, run_seed, uniform_alphas(M, range(2, M.H))))
        return Inputs(units)

    def unit(self, inp):
        M, Phi, run_seed, unif = inp
        s = VOX_SCHEDULE
        counter = EpisodeCounter()
        try:
            res = drivers.run_vox(M, Phi, s, np.random.default_rng(run_seed),
                                  counter=counter)
        except BudgetError:
            return Outcome(True, counter.count, b"BudgetError")
        want = sum(s.n_replearn + (1 + r["fw_iters"]) * (r["h"] + 1) * s.n_psdp
                   + 2 * r["fw_iters"] * s.n_estmat for r in res.log)
        gate(res.episodes == counter.count == want,
             f"vox episode accounting: {res.episodes}, {counter.count}, {want}")
        alpha, ratio = _cover_quality(M, res.covers, unif, "expectation")
        return Outcome(False, counter.count, res.to_json().encode(), alpha, ratio,
                       fw_iters=sum(r["fw_iters"] for r in res.log))


class SpanrlLock:
    name = "spanrl_lock"
    quality_units, prepared_units, nominal_unit_s = 8, 48, 1.3
    setup_repeats = 15

    def setup(self, seed, n_units):
        units = []
        for i in range(n_units):
            env_seed, phi_seed, run_seed = seeds(3, seed, i)
            M, unif = checked_lock(env_seed)
            Phi = make_feature_class(M, n_decoys=N_DECOYS,
                                     rng=np.random.default_rng(phi_seed))
            eta = min(reachability_eta(M, h) for h in range(1, M.H))
            units.append((M, Phi, eta / (36.0 * M.d ** 2.5), run_seed, unif))
        return Inputs(units)

    def unit(self, inp):
        M, Phi, eps, run_seed, unif = inp
        counter = EpisodeCounter()
        res = run_lock_spanrl(M, Phi, eps, run_seed, counter)
        alpha, ratio = _cover_quality(M, res.covers, unif, "max")
        return Outcome(False, counter.count, res.to_json().encode(), alpha, ratio)


def run_lock_spanrl(M, Phi, eps, run_seed, counter):
    res = drivers.run_spanrl(M, Phi, eps, SPANRL_SCHEDULE,
                             np.random.default_rng(run_seed), counter=counter)
    gate(res.episodes == counter.count, "spanrl episode count mismatch")
    sizes = [len(res.covers.psis[h]) for h in range(2, M.H)]
    gate(all(k == Phi.d for k in sizes), f"spanrl cover sizes {sizes} != d")
    return res


def dp_optimum(M, tables):
    """Optimal expected summed reward by backward DP over the true model."""
    v = tables[-1].max(axis=1)
    for t in range(len(tables) - 2, -1, -1):
        v = (tables[t] + M.transition_matrix(t) @ v).max(axis=1)
    return float(M.rho @ v)


class PlanLock:
    name = "plan_lock"
    quality_units, prepared_units, nominal_unit_s = 32, 1024, 0.065
    setup_repeats = 5

    def setup(self, seed, n_units):
        env_seed, phi_seed, run_seed = seeds(3, seed)
        M, unif = checked_lock(env_seed)
        Phi = make_feature_class(M, n_decoys=N_DECOYS,
                                 rng=np.random.default_rng(phi_seed))
        eta = min(reachability_eta(M, h) for h in range(1, M.H))
        res = run_lock_spanrl(M, Phi, eta / (36.0 * M.d ** 2.5), run_seed,
                              EpisodeCounter())
        alpha, ratio = _cover_quality(M, res.covers, unif, "max")
        units = []
        for i in range(n_units):
            theta_seed, run_seed = seeds(2, seed, i)
            u = np.random.default_rng(theta_seed).standard_normal((M.H - 1, M.d))
            thetas = u / np.linalg.norm(u, axis=1, keepdims=True)
            units.append((M, Phi, res.covers, thetas, run_seed))
        return Inputs(units, {"alpha_min": alpha, "alpha_vs_uniform": ratio},
                      res.to_json().encode())

    def unit(self, inp):
        M, Phi, covers, thetas, run_seed = inp
        counter = EpisodeCounter()
        pol, value = drivers.optimize_reward(M, covers, thetas, Phi,
                                             PLAN_EPISODES,
                                             np.random.default_rng(run_seed),
                                             counter=counter)
        tables = [M.phi[t] @ thetas[t] for t in range(M.H - 1)]
        gap = dp_optimum(M, tables) - value
        gate(gap >= GAP_TOL, f"plan value exceeds the DP optimum by {-gap}")
        payload = b"".join(t.tobytes() for t in pol.tables) + repr(value).encode()
        return Outcome(False, counter.count, payload, gap=gap)


WORKLOADS = {w.name: w for w in (VoxReadme(), SpanrlLock(), PlanLock())}


def digest(inputs, outcomes):
    """SHA-256 over the set-up output and each unit's output, in order."""
    h = hashlib.sha256(inputs.setup_output)
    for out in outcomes:
        h.update(hashlib.sha256(out.payload).digest())
    return h.hexdigest()


def quality(inputs, outcomes):
    """Exact quality of a fixed list of units (deterministic per seed)."""
    done = [o for o in outcomes if not o.failed]
    gate(bool(done), "no unit of the quality set completed")
    q = {"episodes_per_run": statistics.median(o.episodes for o in done)}
    if inputs.quality:
        q.update(inputs.quality)
    else:
        q["alpha_min"] = statistics.median(o.alpha for o in done)
        q["alpha_vs_uniform"] = statistics.median(o.alpha_vs_uniform for o in done)
    gaps = [o.gap for o in done if o.gap is not None]
    if gaps:
        q["reward_gap"] = statistics.fmean(gaps)
    return q


def set_up(workload, seed):
    """Build the inputs ``setup_repeats`` times; return the times and inputs."""
    times, digests = [], set()
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        inputs = workload.setup(seed, workload.prepared_units)
        times.append(time.perf_counter() - t0)
        digests.add(inputs.setup_output)
    gate(len(digests) == 1, "set-up output differs between repeats")
    return times, inputs


def reference_kernel():
    """Fixed numpy work shaped like voxlab's hot loops (sampling, small SVDs).

    Timed right before each unit, it tracks the shared host's current
    speed, which drifts by +-15% within minutes.
    """
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(40):
        p = rng.random((4000, 4))
        cum = np.cumsum(p, axis=1)
        u = rng.random(4000) * cum[:, -1]
        acc += float((cum <= u[:, None]).sum())
    Z = rng.random((10, 2))
    for _ in range(400):
        acc += float(np.linalg.svd(Z, full_matrices=False)[1][0])
    return acc


def unit_count(workload, seconds):
    """Units in a timed run: a fixed count, sized so that the run takes about
    ``seconds`` on a 2-core host (``nominal_unit_s``, measured there with the
    reference kernel included).  The count does not depend on the clock, so
    a seed always gives the same units and the same failures."""
    return max(workload.quality_units, round(seconds / workload.nominal_unit_s))


def pair_count(workload, seconds):
    """Untraced-plus-traced sweep pairs in a traced run; at least one."""
    pair_s = 2 * workload.quality_units * workload.nominal_unit_s
    return max(1, int(seconds // pair_s))


def sweep(workload, inputs, n_units, tracer=None, refs=None):
    """Run the first ``n_units`` units in order.

    Past the prepared inputs the sweep starts over from the first.  With a
    tracer, each unit is a root span, and the traced episode and Frank-Wolfe
    counts must equal what the unit itself reports.  With a ``refs`` list,
    the reference kernel is timed into it before every unit.
    """
    units = inputs.units
    outcomes, times = [], []
    if refs is not None:
        reference_kernel()
    start = time.perf_counter()
    while len(outcomes) < n_units:
        if refs is not None:
            t0 = time.perf_counter()
            reference_kernel()
            refs.append(time.perf_counter() - t0)
        inp = units[len(outcomes) % len(units)]
        if tracer is None:
            t0 = time.perf_counter()
            out = workload.unit(inp)
            times.append(time.perf_counter() - t0)
        else:
            eps0 = tracer.counts.get("sample.episodes", 0.0)
            fw0 = tracer.counts.get("fw.iters", 0.0)
            t0 = time.perf_counter()
            with tracer.span("bench.unit"):
                out = workload.unit(inp)
            times.append(time.perf_counter() - t0)
            traced = tracer.counts.get("sample.episodes", 0.0) - eps0
            gate(traced == out.episodes,
                 f"traced episodes {traced} != EpisodeCounter {out.episodes}")
            if out.fw_iters is not None:
                traced = tracer.counts.get("fw.iters", 0.0) - fw0
                gate(traced == out.fw_iters,
                     f"traced fw_iters {traced} != log sum {out.fw_iters}")
        outcomes.append(out)
    return outcomes, times, time.perf_counter() - start


def timed_run(workload, inputs, seconds):
    """The untraced run: end-to-end metrics and the figures for the record."""
    refs = []
    outcomes, times, wall = sweep(workload, inputs,
                                  unit_count(workload, seconds), refs=refs)
    done = [(t, r) for t, r, o in zip(times, refs, outcomes) if not o.failed]
    gate(bool(done), "no unit completed")
    first = outcomes[:workload.quality_units]
    metrics = dict(quality(inputs, first), **{
        "run_s.p50": statistics.median(t for t, _ in done),
        "run_ref.p50": statistics.median(t / r for t, r in done)})
    return outcomes, metrics, {"sweep_s": wall, "unit_s": times,
                               "reference_s": refs,
                               "digest": digest(inputs, first)}


def traced_run(workload, inputs, seconds, tracer):
    """Alternate untraced and traced sweeps of the quality set.

    Does ``pair_count`` pairs.  Returns the outcomes, the tracing overhead
    per sweep and the sweep times.
    """
    plain, traced, outcomes = [], [], []
    n = workload.quality_units
    for _ in range(pair_count(workload, seconds)):
        outs_u, _, wall_u = sweep(workload, inputs, n)
        with tracer.patched():
            outs_t, _, wall_t = sweep(workload, inputs, n, tracer=tracer)
        sha = digest(inputs, outs_u)
        gate(digest(inputs, outs_t) == sha, "tracing changed the outputs")
        plain.append(wall_u)
        traced.append(wall_t)
        outcomes += outs_u + outs_t
    overhead = statistics.median(traced) - statistics.median(plain)
    return outcomes, overhead, {"untraced_sweep_s": plain,
                                "traced_sweep_s": traced, "digest": sha}
