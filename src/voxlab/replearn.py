"""Minimax representation learning over a finite feature class.

Alternates between an adversarial discriminator search (which function of
the next state is hardest for the current candidate to fit as a linear
function of its features?) and least-squares feature selection against all
discriminators found so far, stopping once the measured advantage falls
below the determinantal threshold 16*d*t*eps_stat^2.

Transition data is collected once per call: roll in with a policy drawn
from the supplied mixture, take a uniform action at the target layer, and
count the (x_h, a_h, x_{h+1}) triples, which the sampler draws from their
exact multinomial law.  Everything downstream works off those counts, so
no cost grows with the sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from voxlab.core import Discriminator, Policy, VoxlabError, _freeze
from voxlab.psdp import NORM_EPS, BallLeastSquares, ObservedCells, matvec, row_norms
from voxlab.simenv import mixture_occupancy, sample_trajectories


FIRST_STEP = 0.5  # the first step of every hill-climb chain


@dataclass
class RepLearnConfig:
    """Knobs for the learning loop and the discriminator search.  The search
    draws `restarts` seeds per candidate at every d; `grad_steps` caps its
    hill climb, which runs only when d >= 3.  The threshold, the two radii
    and the iteration cap are always derived."""

    c: float = 1.0
    delta: float = 0.05
    restarts: int = 8
    grad_steps: int = 60

    def __post_init__(self):
        for name, ok, want in (
                ("c", 0.0 < self.c < math.inf, "finite and > 0"),
                ("delta", 0.0 < self.delta < 1.0, "in (0, 1)"),
                ("restarts", self.restarts >= 1, ">= 1"),
                ("grad_steps", self.grad_steps >= 0, ">= 0")):
            if not ok:
                raise VoxlabError(
                    f"replearn {name} must be {want}, got {getattr(self, name)!r}")

    def resolve(self, d, n, n_candidates):
        """(eps_stat, r_big, r_small, T): eps_stat^2 = c d^2 log(|Phi|/delta)/n,
        radii 3 d^1.5 and 2 sqrt(d), T = max(1, ceil(d log(2n/sqrt(d))/log 1.5))."""
        eps = math.sqrt(self.c * d * d * math.log(n_candidates / self.delta) / n)
        T = math.ceil(d * math.log(2.0 * n / math.sqrt(d)) / math.log(1.5))
        return eps, 3.0 * d ** 1.5, 2.0 * math.sqrt(d), max(T, 1)


class RepLearnDataset:
    """Aggregated (x_h, a_h, x_{h+1}) triple counts at one layer.

    The counts are held as a read-only copy, so ``cells``, the
    `ObservedCells` of the pair counts, and the factor they keep stay valid
    for every search's `_GapScorer` and every feature selection on this data.
    """

    def __init__(self, layer, counts):
        self.layer = layer
        # summed as given: integer counts sum exactly, their float copy not
        self.n = int(round(np.sum(counts)))
        self.counts = _freeze(counts)
        if self.n == 0:
            raise VoxlabError("empty dataset")
        self.pair_counts = self.counts.sum(axis=2)
        # the observed (x, a) cells, shared by every regression on this data
        self.cells = ObservedCells(self.pair_counts)
        # counts as (observed cell, x_{h+1}): the targets' counts product
        self._counts_at = self.counts.reshape(-1, self.counts.shape[2])[
            self.cells.index]
        # counts as (x_{h+1}, cell): the envelope gradient's pullback
        self._next_by_cell = self.counts.transpose(2, 0, 1).reshape(
            self.counts.shape[2], -1)
        for arr in (self.pair_counts, self._counts_at, self._next_by_cell):
            arr.setflags(write=False)

    @classmethod
    def collect(cls, M, h, P, n, rng, counter=None):
        """n roll-ins of pi ~ P with a uniform action at layer h."""
        if not 0 <= h <= M.H - 2:
            raise VoxlabError(f"layer {h} has no transition data (H={M.H})")
        tail = Policy.uniform(M, h, h + 1)
        counts = sample_trajectories(M, P, n, rng, h + 1, tail, counter=counter)[1]
        return cls(h, counts.sum(axis=2).reshape(M.n_states(h), M.A, -1))

    def targets(self, F):
        """Cell-mean targets (S, m) and within-cell offsets (S,) for the rows
        of next-state values F (S, n_{h+1}): both moments from one counts
        product over the observed cells."""
        S, cnt = len(F), self.cells.counts
        sums = matvec(self._counts_at, np.concatenate((F, F * F)))
        Y = sums[:S] / cnt
        offsets = sums[S:].sum(axis=1) - (cnt * Y * Y).sum(axis=1)
        return Y, np.where(offsets < 0.0, 0.0, offsets)


@dataclass
class RepLearnResult:
    index: int
    iterations: int
    capped: bool
    gaps: list = field(default_factory=list)
    threshold: float = 0.0


class _GapScorer:
    """Adversarial gaps and envelope gradients of discriminators against one
    current candidate on one dataset, built once per search.

    It keeps what stays fixed for the search: the candidate stack T (K, n_h,
    A, d) and its stacked factor, the two radii and the dataset's counts.  A
    call scores S discriminators: row i is the direction thetas[i] on the
    next-layer feature table ftabs[i] (ftabs is (S, n_{h+1}, A, d), possibly
    a broadcast view).  The gap is the loss of the current candidate in the
    big ball minus the best candidate's loss in the small ball (the first
    best on ties).  Every candidate is fitted by one stacked `min_norm`
    solve.  When every unconstrained fit lies inside both balls no fit
    moves, so `into_ball` is skipped and the current candidate's loss is its
    row of the stacked losses; on the benchmark's searches no fit leaves a
    ball, and the skip saves about 15% of a call.  Otherwise the stack is
    put into each ball, and the current candidate's big-ball fit is its row
    of the big-ball stack.  The gradient, None unless grad (a hill climb
    follows), holds the fitted weights and moves the targets.  Every row is
    bit-identical to scoring that discriminator alone against one candidate
    at a time.
    """

    def __init__(self, data, current, T, r_big, r_small, grad=True):
        self.data, self.current, self.T = data, current, T
        self.r_big, self.r_small, self.grad = r_big, r_small, grad
        self.inside = min(r_big, r_small) + NORM_EPS
        self.fac = data.cells.factor(T)

    def __call__(self, ftabs, thetas):
        S, fac, cur = len(thetas), self.fac, self.current
        fvals = matvec(ftabs, thetas[:, None, :])
        # the maximum over actions, folded: the bits of fvals.max(axis=2)
        f = fvals[..., 0]
        for a in range(1, fvals.shape[2]):
            f = np.maximum(f, fvals[..., a])
        Y, offsets = self.data.targets(f)
        B, W = fac.min_norm(Y)
        if (row_norms(W) <= self.inside).all():
            losses = fac.losses(W, Y, offsets)
            w_own, own = W[cur], losses[cur]
        else:
            big = fac.into_ball(B, W, self.r_big)
            w_own, own = big[cur], fac.losses(big, Y, offsets)[cur]
            W = fac.into_ball(B, W, self.r_small)
            losses = fac.losses(W, Y, offsets)
        rows = np.arange(S)
        best = losses.argmin(axis=0)
        gaps = own - losses[best, rows]
        if not self.grad:
            return gaps, None
        diff = (matvec(self.T[best], W[best, rows][:, None, :])
                - matvec(self.T[cur], w_own[:, None, :]))
        s = matvec(self.data._next_by_cell, diff.reshape(S, -1))
        chosen = ftabs[rows[:, None], np.arange(ftabs.shape[1]), fvals.argmax(axis=2)]
        return gaps, 2.0 * (s[:, :, None] * chosen).sum(axis=1)


def _hill_climb(score, thetas, gaps, grads, config):
    """Monotone hill climbs with adaptive step size from every row of thetas,
    advanced together with one `score` call per step (the search's
    `_GapScorer`, given the live chains' rows).  A chain stops when its step
    underflows or its candidate vanishes.  Returns each chain's accepted
    (gap, theta) points in the order they were accepted.  The per-chain
    bookkeeping stays a Python loop: with a handful of chains, array
    bookkeeping measured slower."""
    thetas, gaps, grads = thetas.copy(), gaps.tolist(), grads.copy()
    steps = [FIRST_STEP] * len(gaps)
    live = np.ones(len(gaps), dtype=bool)
    accepted = [[] for _ in gaps]
    for _ in range(config.grad_steps):
        cand = thetas + np.array(steps)[:, None] * grads
        nrm = row_norms(cand)
        live &= ~(nrm < 1e-12)
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        cand = cand[rows] / nrm[rows, None]
        g2, grad2 = score(rows, cand)
        for j, (i, gap) in enumerate(zip(rows.tolist(), g2.tolist())):
            if gap > gaps[i]:
                thetas[i], gaps[i], grads[i] = cand[j], gap, grad2[j]
                steps[i] *= 1.3
                accepted[i].append((gap, cand[j]))
            else:
                steps[i] *= 0.5
                live[i] = steps[i] >= 1e-7
    return accepted


# angle offsets of a d = 2 search's refinement ring, which replaces the hill
# climb there: eighths of the 64-angle sweep's step, up to 7/8 on each side
_RING = np.pi / 256 * np.array([j for j in range(-7, 8) if j])


def _first_max(gaps):
    """Index, along the last axis, of the first largest gap above -inf, NaN
    never winning; 0 when no gap is above -inf.  It is where a running best
    that starts at -inf and keeps the first strictly larger gap ends."""
    return np.where(gaps > -np.inf, gaps, -np.inf).argmax(axis=-1)


def _search_points(Phi, phi_current, data, config, rng):
    """The gaps, directions and candidate indices of every point the
    discriminator search weighs, as arrays (P,), (P, d) and (P,) in the
    order a search scoring one direction at a time compares them with its
    running best: candidate by candidate, its seeds, then its refinement
    ring (d = 2) or its chains in stable descending-gap order, each chain's
    accepted points in order (d >= 3).

    Scoring goes through one `_GapScorer` built for the search.  Every
    candidate's restarts are drawn from `rng` in candidate order, then the
    seed sets of all candidates are scored in one call.  At d = 2 one more
    call scores each candidate's ring of 14 angles around its first-best
    seed (`_first_max`); at d >= 3 the hill-climb chains of all candidates
    advance together, one call per step.  At d = 1 the seeds are the whole
    sphere {-1, 1}, so nothing follows them.
    """
    d = Phi.d
    _, r_big, r_small, _ = config.resolve(d, data.n, len(Phi.candidates))
    next_tables = Phi.tables_at(data.layer + 1)
    K = len(next_tables)
    eye = np.eye(d)
    sweep = np.stack([eye, -eye], axis=1).reshape(-1, d)
    if d == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        sweep = np.concatenate([sweep, np.stack([np.cos(angles), np.sin(angles)],
                                                axis=1)])
    extra = np.array([rng.standard_normal((config.restarts, d)) for _ in range(K)])
    extra /= np.maximum(row_norms(extra), 1e-12)[..., None]
    # (K, seeds, d): each candidate's sweep, then its restarts
    seeds = np.concatenate([np.broadcast_to(sweep, (K,) + sweep.shape), extra],
                           axis=1)
    n_seeds = seeds.shape[1]
    thetas = seeds.reshape(-1, d)
    fis = np.repeat(np.arange(K), n_seeds)
    score = _GapScorer(data, phi_current, Phi.tables_at(data.layer), r_big, r_small,
                       grad=d > 2)
    gaps, grads = score(next_tables[fis], thetas)
    if d == 2:
        block = gaps.reshape(K, n_seeds)
        tops = seeds[np.arange(K), _first_max(block)]
        angles = np.arctan2(tops[:, 1], tops[:, 0])[:, None] + _RING
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=2)
        ring_gaps, _ = score(np.repeat(next_tables, len(_RING), axis=0),
                             ring.reshape(-1, 2))
        return (np.concatenate([block, ring_gaps.reshape(K, -1)], axis=1).ravel(),
                np.concatenate([seeds, ring], axis=1).reshape(-1, 2),
                np.repeat(np.arange(K), n_seeds + len(_RING)))
    if d == 1:
        return gaps, thetas, fis
    blocks = [range(fi * n_seeds, (fi + 1) * n_seeds) for fi in range(K)]
    listed = gaps.tolist()
    chains = [i for block in blocks
              for i in sorted(block, key=lambda i: -listed[i])[:3]]
    chain_fis = fis[chains]
    chain_tabs = next_tables[chain_fis]
    climbs = _hill_climb(lambda rows, cand: score(chain_tabs[rows], cand),
                         thetas[chains], gaps[chains], grads[chains], config)
    points = [[(listed[i], thetas[i], fi) for i in block]
              for fi, block in enumerate(blocks)]
    for fi, climb in zip(chain_fis.tolist(), climbs):
        points[fi] += [(gap, theta, fi) for gap, theta in climb]
    return tuple(map(np.array, zip(*[point for block in points for point in block])))


def discriminator_search(Phi, phi_current, data: RepLearnDataset,
                         config: RepLearnConfig, rng):
    """Best-effort maximizer of the adversarial gap over the discriminator class.

    Enumerates the feature candidate inside the discriminator and optimizes
    its unit direction: a seed sweep (canonical directions, a dense angular
    sweep when d = 2, and random restarts), then at d = 2 a ring of angles
    at eighths of the sweep's step around each candidate's best seed, and at
    d >= 3 a monotone hill climb with adaptive step size from the three most
    promising seeds of each candidate.  The best evaluated point is tracked
    throughout, so the result is never worse than any seed.

    The directions are scored in batches through one `_GapScorer` per
    search (`_search_points`): every candidate's seeds in one call, then
    one call for all rings or one call per hill-climb step.  The running
    best of a search scoring one direction at a time, which keeps the first
    strictly larger gap, is replayed on the points in its order as their
    first largest gap above -inf (`_first_max`).  Gaps, the chosen theta and
    the generator state are bit-identical to that search's.
    """
    gaps, thetas, fis = _search_points(Phi, phi_current, data, config, rng)
    i = _first_max(gaps)
    if not gaps[i] > -np.inf:
        return None, -np.inf
    return Discriminator(thetas[i], fis[i]), float(gaps[i])


def feature_selection(Phi, discriminators, data: RepLearnDataset,
                      config: RepLearnConfig):
    """argmin over candidates of the summed best-response losses."""
    if not discriminators:
        raise VoxlabError("need at least one discriminator")
    d = Phi.d
    _, _, r_small, _ = config.resolve(d, data.n, len(Phi.candidates))
    F = np.stack([f.values(Phi, data.layer + 1) for f in discriminators])
    fac = data.cells.factor(Phi.tables_at(data.layer))
    losses, _ = fac.fit(*data.targets(F), r_small)
    # summed discriminator by discriminator, in order, like a scalar sum
    return int(np.argmin(sum(losses.T)))


def rep_learn(M, h, Phi, P, n, config: RepLearnConfig, rng,
              counter=None) -> RepLearnResult:
    """Select a feature index for layer h from mixture roll-in data, with the
    threshold, radii and iteration cap that `RepLearnConfig.resolve` derives."""
    if not Phi.candidates:
        raise VoxlabError("empty feature class")
    if h + 1 >= len(Phi.candidates[0]):
        raise VoxlabError(
            f"discriminators at layer {h + 1} need candidate feature tables "
            f"there; the class stops at layer {len(Phi.candidates[0]) - 1}"
        )
    data = RepLearnDataset.collect(M, h, P, n, rng, counter=counter)
    d = Phi.d
    eps_stat, _, _, T = config.resolve(d, n, len(Phi.candidates))
    current = 0
    discs = []
    gaps = []
    for t in range(1, T + 1):
        f, gap = discriminator_search(Phi, current, data, config, rng)
        gaps.append(gap)
        threshold = 16.0 * d * t * eps_stat**2
        if gap <= threshold:
            return RepLearnResult(index=current, iterations=t, capped=False,
                                  gaps=gaps, threshold=threshold)
        discs.append(f)
        current = feature_selection(Phi, discs, data, config)
    return RepLearnResult(index=current, iterations=T, capped=True, gaps=gaps,
                          threshold=16.0 * d * T * eps_stat**2)


def exact_transfer_error(M, h, Phi, index, P, n_dirs=200, rng=None):
    """Worst-case exact regression error of a candidate feature map.

    For discriminators f(x') = max_a theta^T phi_f(x', a) over a sampled set
    of unit directions (canonical directions included), computes the exact
    population loss min_{||w|| <= 3d^{3/2}} E[(w^T phi - E[f(x_{h+1})|x,a])^2]
    under the data law (pi ~ P to layer h, uniform action), and returns the
    max over discriminators.  Uses the true factorization; evaluation only.
    All directions on one next-layer table are fitted with one batched
    solve, bit-identical to fitting them one at a time.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    d = Phi.d
    occ = mixture_occupancy(M, P, h)
    weights = np.repeat(occ[:, None] / M.A, M.A, axis=1).ravel()
    fac = BallLeastSquares(Phi.tables_at(h)[index].reshape(-1, d), weights)
    mu = M.mu[h]
    phistar = M.phi[h].reshape(-1, d)
    dirs = [np.eye(d)[i] * s for i in range(d) for s in (1.0, -1.0)]
    while len(dirs) < n_dirs:
        u = rng.standard_normal(d)
        nrm = np.linalg.norm(u)
        if nrm > 1e-12:
            dirs.append(u / nrm)
    dirs = np.array(dirs)
    losses = [0.0]
    for ftab in Phi.tables_at(h + 1):
        fvals = matvec(ftab, dirs[:, None, :]).max(axis=2)
        targets = matvec(phistar, matvec(mu.T, fvals))
        losses.extend(fac.fit(targets, 0.0, 3.0 * d ** 1.5)[0].tolist())
    return max(losses)
