"""VoX and SpanRL outer loops plus downstream reward optimization.

Both explorers run one layer loop, `_explore`, which builds per-layer
exploration covers bottom-up.  The first two layers need no exploration
(initial states plus one uniform action).  For each layer hc and each of
its K designs the loop relearns features from a roll-in (layer hc's cover,
mixed half-and-half with the designs so far from the second design on) and
asks the explorer for a design over layers 0..hc; the designs, each
composed with uniform play from layer hc+1 on, form layer hc+2's cover.

VoX makes K designs per layer with the Frank-Wolfe design loop, whose
LinOpt is PSDP on quadratic feature rewards (radius sqrt(d)) and whose
LinEst is the Monte-Carlo second moment; each step mixes in the
line-search weight, logged in the row's ``steps``, and the cover mixes the
designs at 1/K.

SpanRL makes one design per layer: a barycentric spanner of the reachable
feature expectations, whose LinOpt is PSDP on linear feature rewards
(radius 2 sqrt(d)) and whose LinEst is the Monte-Carlo first moment; its d
policies, at weight 1/d each, form the cover.  The design's PSDP queries
share one roll-in memo, keyed by everything a draw reads, so each distinct
roll-in is drawn once: layers hc and hc-1 by the first query only, a lower
layer once per greedy suffix.  The log row's ``psdp_draws`` counts them,
and a layer's episodes are n_replearn + est_calls * n_estvec + psdp_draws *
n_psdp, with psdp_draws at most 1 + min(hc, 1) + opt_calls * max(hc - 1,
0).  VoX passes no memo: each of its queries draws every layer.  Every
PSDP query, `optimize_reward`'s (radius 2 H sqrt(d)) too, takes its top
layer's reward as that layer's Q-function and fits nothing there, yet
draws the top layer's roll-in, which nothing reads.

Every episode is counted by, and every sample drawn through,
`simenv.sample_trajectories`, which draws the counts the estimators read
from their exact multinomial law.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from voxlab.core import (
    BudgetError,
    Policy,
    PolicyDistribution,
    VoxlabError,
    _integer,
    _numbers,
    compose_policies,
)
from voxlab.estimators import est_mat, est_vec
from voxlab.optdesign import fw_optdesign
from voxlab.psdp import linear_reward, psdp, quadratic_reward
from voxlab.replearn import RepLearnConfig, rep_learn
from voxlab.simenv import EpisodeCounter, exact_policy_value
from voxlab.spanner import robust_spanner


C = 2.0  # of every design and spanner; a run's covers record it in their meta


@dataclass
class VoxSchedule:
    """Parameters of one VoX run, given directly or by `paper`, which
    derives them from the target reachability eta, the class size and
    ``replearn``'s delta (its default, 0.05, when none is given) via the
    published schedule.  The sampler's cost does not grow with n, so a
    `paper` run on the benchmark's H = 6 locks takes 1.5-4.2 s (2-core Xeon).
    ``fw_max_iters=None`` caps each design at 2 * `fw_iteration_bound`.
    """

    K: int
    gamma: float
    n_replearn: int
    n_estmat: int
    n_psdp: int
    fw_max_iters: int | None = None
    replearn: RepLearnConfig = field(default_factory=RepLearnConfig)

    def __post_init__(self):
        if self.K < 1 or min(self.n_replearn, self.n_estmat, self.n_psdp) < 1:
            raise VoxlabError("schedule counts must be positive")
        if not 0.0 < self.gamma < 1.0:
            raise VoxlabError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.fw_max_iters is not None and self.fw_max_iters < 1:
            raise VoxlabError(f"fw_max_iters must be >= 1, got {self.fw_max_iters}")

    @classmethod
    def paper(cls, eta, d, A, n_candidates, H, c=1.0, **kw):
        if not 0.0 < eta <= 1.0:
            raise VoxlabError(f"eta must be in (0, 1], got {eta}")
        delta = kw.setdefault("replearn", RepLearnConfig()).delta
        K = math.ceil(c * eta**-2 * d**5 * A)
        gamma = eta**2 * d**-4 / 576.0
        log_phi = math.log(n_candidates / delta)
        return cls(
            K=K,
            gamma=gamma,
            n_replearn=math.ceil(c * eta**-5 * d**10 * A**2 * log_phi),
            n_estmat=math.ceil(c * gamma**-4 * math.log(1.0 / delta)),
            n_psdp=math.ceil(
                c * eta**-1 * gamma**-2 * H**2 * d**2 * K * A**2 * (d + log_phi)
            ),
            **kw,
        )


@dataclass
class SpanrlSchedule:
    """Parameters of one SpanRL run, given directly or by `paper` (sized at
    ``replearn``'s delta), whose runs on the benchmark's H = 6 locks take
    0.01-0.03 s (2-core Xeon).  A schedule does not record the eps that
    `paper` sized it at, so `run_spanrl` cannot check the eps it is given."""

    n_replearn: int
    n_estvec: int
    n_psdp: int
    replearn: RepLearnConfig = field(default_factory=RepLearnConfig)

    def __post_init__(self):
        if min(self.n_replearn, self.n_estvec, self.n_psdp) < 1:
            raise VoxlabError("schedule counts must be positive")

    @classmethod
    def paper(cls, eps, d, A, n_candidates, H, c=1.0, **kw):
        if not 0.0 < eps < 1.0:
            raise VoxlabError(f"eps must be in (0, 1), got {eps}")
        delta = kw.setdefault("replearn", RepLearnConfig()).delta
        log_phi = math.log(n_candidates / delta)
        return cls(
            n_replearn=math.ceil(c * eps**-2 * A**2 * d * log_phi),
            n_estvec=math.ceil(c * eps**-2 * math.log(1.0 / delta)),
            n_psdp=math.ceil(c * eps**-2 * A**2 * d**3 * H**2 * (d + log_phi)),
            **kw,
        )


def mix_distributions(parts):
    """Convex combination of policy distributions; equal policies merge into
    the first of them.

    ``parts`` is a sequence of (PolicyDistribution, coefficient) with
    coefficients summing to 1.
    """
    merged = {}
    for dist, coef in parts:
        if coef == 0.0:
            continue
        for pi, w in zip(dist.policies, dist.weights):
            merged[pi] = merged.get(pi, 0.0) + coef * w
    return PolicyDistribution(list(merged), list(merged.values()))


@dataclass
class CoverSet:
    """Per-layer exploration covers produced by a driver."""

    kind: str
    H: int
    layers: list
    meta: dict = field(default_factory=dict)

    @property
    def psis(self):
        """The policies of each spanner cover (None for an unfilled layer);
        None for any other kind of cover."""
        if self.kind != "spanrl":
            return None
        return [None if dist is None else list(dist.policies)
                for dist in self.layers]

    def distribution(self, h) -> PolicyDistribution:
        if not 0 <= h < min(self.H, len(self.layers)) or self.layers[h] is None:
            raise VoxlabError(f"no cover stored for layer {h}")
        return self.layers[h]

    def to_obj(self):
        return {
            "kind": self.kind,
            "H": self.H,
            "layers": [
                {
                    "weights": [float(w) for w in dist.weights],
                    "policies": [_policy_to_obj(pi) for pi in dist.policies],
                }
                for dist in self.layers
            ],
            "meta": self.meta,
        }

    @classmethod
    def from_obj(cls, obj):
        layers = [
            PolicyDistribution(
                [_policy_from_obj(p) for p in entry["policies"]],
                _numbers(entry["weights"], f"covers.layers[{h}].weights"),
            )
            for h, entry in enumerate(obj["layers"])
        ]
        return cls(kind=obj["kind"], H=_integer(obj["H"], "covers.H"), layers=layers,
                   meta=obj.get("meta", {}))


def _policy_to_obj(pi: Policy):
    return {"lo": pi.lo, "tables": [t.tolist() for t in pi.tables]}


def _policy_from_obj(obj):
    return Policy(_integer(obj["lo"], "policy lo"),
                  [_numbers(t, "policy table") for t in obj["tables"]])


@dataclass
class RunResult:
    covers: CoverSet
    episodes: int
    log: list

    def to_obj(self):
        return {
            "covers": self.covers.to_obj(),
            "episode_count": self.episodes,
            "log": self.log,
        }

    def to_json(self):
        return json.dumps(self.to_obj(), sort_keys=True)


def _top_layer_rewards(M, h, top):
    """Reward tables for layers 0..h: zero below h, ``top`` at h."""
    return [np.zeros((M.n_states(t), M.A)) for t in range(h)] + [top]


def _explore(M, Phi, schedule, rng, counter, covers, log, design, K=1):
    """The layer loop of both explorers; appends the covers of layers 2..H-1
    to ``covers`` (which holds those of layers 0 and 1) and a row per design
    to ``log``.

    ``design(hc, k, tab, row)`` returns the k-th design of layer hc, a
    PolicyDistribution over layers 0..hc, given the relearned feature table
    and the log row, to which it adds its own fields.  The cover mixes the K
    designs at 1/K; one design is kept as it is, so equal policies in it
    stay separate entries.
    """
    for hc in range(M.H - 2):
        designs = []
        for k in range(1, K + 1):
            P = covers[hc] if k == 1 else mix_distributions(
                [(covers[hc], 0.5)] + [(D, 1.0 / (2.0 * (k - 1))) for D in designs])
            rep = rep_learn(M, hc, Phi, P, schedule.n_replearn,
                            schedule.replearn, rng, counter=counter)
            row = {"h": hc, "phi_index": rep.index,
                   "replearn_iters": rep.iterations, "replearn_capped": rep.capped}
            designs.append(design(hc, k, Phi.tables_at(hc)[rep.index], row))
            log.append(row)
        tail = Policy.uniform(M, hc + 1, M.H - 1)
        designs = [PolicyDistribution([compose_policies(pi, tail) for pi in D.policies],
                                      D.weights) for D in designs]
        covers.append(designs[0] if K == 1 else
                      mix_distributions([(D, 1.0 / K) for D in designs]))


def run_vox(M, Phi, schedule: VoxSchedule, rng, counter=None) -> RunResult:
    """Layer-by-layer cover construction via representation-aware design."""
    counter = EpisodeCounter() if counter is None else counter
    covers, log = [PolicyDistribution([Policy.uniform(M)], [1.0])] * 2, []

    def design(hc, k, tab, row):
        phiphi = np.einsum("xad,xae->xade", tab, tab)

        def lin_opt(Mquery):
            rewards = _top_layer_rewards(M, hc, quadratic_reward(Mquery, tab))
            return psdp(M, hc, rewards, Phi, math.sqrt(Phi.d), covers[:hc + 1],
                        schedule.n_psdp, rng, counter=counter)

        def lin_est(P):
            # one index has weight exactly 1.0 (FW divides by the sum): its policy
            pi = (next(iter(P)) if len(P) == 1
                  else PolicyDistribution(list(P), list(P.values())))
            return est_mat(M, hc, phiphi, pi, schedule.n_estmat, rng,
                           counter=counter)

        try:
            state = fw_optdesign(lin_opt, lin_est, C, schedule.gamma, Phi.d,
                                 schedule.fw_max_iters)
        except BudgetError as exc:
            raise BudgetError(f"run_vox layer {hc}, k = {k}: {exc}",
                              iterations=exc.iterations, certificate=exc.certificate,
                              layer=hc, k=k, log=log, episodes=counter.count) from exc
        row.update(k=k, fw_iters=state.iterations, certificate=state.certificate,
                   support=state.support_size,
                   trace=[[int(t), float(o), float(c)] for t, o, c in state.trace],
                   steps=[float(a) for a in state.steps])
        return PolicyDistribution(list(state.P), list(state.P.values()))

    _explore(M, Phi, schedule, rng, counter, covers, log, design, K=schedule.K)
    coverset = CoverSet(kind="vox", H=M.H, layers=covers,
                        meta={"K": schedule.K, "gamma": schedule.gamma, "C": C})
    return RunResult(covers=coverset, episodes=counter.count, log=log)


def run_spanrl(M, Phi, eps, schedule: SpanrlSchedule, rng,
               counter=None) -> RunResult:
    """Layer-by-layer cover construction via barycentric spanners.

    ``eps`` is the spanner's tolerance and nothing more: ``schedule`` does
    not record the eps its counts were sized at, so nothing checks the two
    against each other, and the covers' ``meta["eps"]`` records only the
    tolerance the spanner ran at."""
    if not 0.0 < eps < 1.0:
        raise VoxlabError(f"eps must be in (0, 1), got {eps}")
    counter = EpisodeCounter() if counter is None else counter
    d = Phi.d
    covers, log = [PolicyDistribution([Policy.empty(0)], [1.0]),
                   PolicyDistribution([Policy.uniform(M)], [1.0])], []

    def design(hc, k, tab, row):
        shared = {}

        def lin_opt(theta):
            rewards = _top_layer_rewards(M, hc, linear_reward(theta, tab))
            return psdp(M, hc, rewards, Phi, 2.0 * math.sqrt(d), covers[:hc + 1],
                        schedule.n_psdp, rng, counter=counter, shared=shared)

        def lin_est(pi):
            return est_vec(M, hc, tab, pi, schedule.n_estvec, rng,
                           counter=counter)

        try:
            state = robust_spanner(lin_opt, lin_est, C, eps, d)
        except BudgetError as exc:
            raise BudgetError(f"run_spanrl layer {hc}: {exc}", layer=hc, log=log,
                              episodes=counter.count) from exc
        row.update(spanner_rounds=state.rounds, oracle_calls=state.oracle_calls,
                   opt_calls=state.opt_calls, est_calls=state.est_calls,
                   psdp_draws=len(shared))
        # a column the spanner left unfilled plays uniform up to layer hc
        return PolicyDistribution(
            [pi if pi is not None else Policy.uniform(M, 0, hc)
             for pi in state.indices], [1.0 / d] * d)

    _explore(M, Phi, schedule, rng, counter, covers, log, design)
    coverset = CoverSet(kind="spanrl", H=M.H, layers=covers,
                        meta={"eps": eps, "C": C})
    return RunResult(covers=coverset, episodes=counter.count, log=log)


def optimize_reward(M, covers: CoverSet, thetas, Phi, n, rng, counter=None):
    """PSDP over the full horizon on linear true-feature rewards.

    ``thetas`` holds exactly one finite (d,) vector of norm at most 1 per
    feature layer, H-1 of them: the last layer has no features.  Returns the
    learned policy and its exact value.
    """
    counter = EpisodeCounter() if counter is None else counter
    thetas = [np.asarray(t, dtype=float) for t in thetas]
    if not all(np.isfinite(t).all() for t in thetas):
        raise VoxlabError("reward vectors must be finite")
    if len(thetas) != M.H - 1:
        raise VoxlabError(f"need {M.H - 1} reward vectors, got {len(thetas)}")
    for t, th in enumerate(thetas):
        if th.shape != (M.d,):
            raise VoxlabError(f"reward vector at layer {t} has shape {th.shape}, "
                              f"expected ({M.d},)")
        if np.linalg.norm(th) > 1.0 + 1e-12:
            raise VoxlabError(f"reward vector at layer {t} has norm > 1")
    tables = [M.phi[t] @ thetas[t] for t in range(M.H - 1)]
    top = M.H - 2
    dists = [covers.distribution(t) for t in range(top + 1)]
    pol = psdp(M, top, tables, Phi, 2.0 * M.H * math.sqrt(Phi.d), dists, n, rng,
               counter=counter)
    value = exact_policy_value(M, pol, tables)
    return pol, value
