"""Minimax representation learning over a finite feature class.

Alternates between an adversarial discriminator search (which function of
the next state is hardest for the current candidate to fit as a linear
function of its features?) and least-squares feature selection against all
discriminators found so far, stopping once the measured advantage falls
below the determinantal threshold 16*d*t*eps_stat^2.

Transition data is collected once per call: roll in with a policy drawn
from the supplied mixture, take a uniform action at the target layer, and
record the (x_h, a_h, x_{h+1}) triple.  Everything downstream works off
the aggregated triple counts, so the per-iteration cost is independent of
the sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from voxlab.core import Discriminator, VoxlabError, as_distribution
from voxlab.psdp import RegressionData, ball_constrained_least_squares
from voxlab.simenv import mixture_occupancy, rollin


@dataclass
class RepLearnConfig:
    """Knobs for the learning loop and the discriminator search."""

    c: float = 1.0
    delta: float = 0.05
    restarts: int = 8
    grad_steps: int = 60
    step_size: float = 0.5
    eps_stat: float | None = None
    r_big: float | None = None
    r_small: float | None = None
    max_iters: int | None = None

    def resolve(self, d, n, n_candidates):
        eps = self.eps_stat
        if eps is None:
            eps = math.sqrt(self.c * d * d * math.log(n_candidates / self.delta) / n)
        r_big = 3.0 * d ** 1.5 if self.r_big is None else self.r_big
        r_small = 2.0 * math.sqrt(d) if self.r_small is None else self.r_small
        T = self.max_iters
        if T is None:
            T = math.ceil(d * math.log(2.0 * n / math.sqrt(d)) / math.log(1.5))
        return eps, r_big, r_small, max(T, 1)


class RepLearnDataset:
    """Aggregated (x_h, a_h, x_{h+1}) triple counts at one layer."""

    def __init__(self, layer, counts):
        self.layer = layer
        self.counts = np.asarray(counts, dtype=float)
        self.n = int(round(self.counts.sum()))
        if self.n == 0:
            raise VoxlabError("empty dataset")
        self.pair_counts = self.counts.sum(axis=2)

    @classmethod
    def collect(cls, M, h, P, n, rng, counter=None):
        """n roll-ins of pi ~ P with a uniform action at layer h."""
        if not 0 <= h <= M.H - 2:
            raise VoxlabError(f"layer {h} has no transition data (H={M.H})")
        unif_h = np.full((M.n_states(h), M.A), 1.0 / M.A)
        unif_next = np.full((M.n_states(h + 1), M.A), 1.0 / M.A)
        S, A = rollin(M, P, n, rng, upto=h + 1, tail=[unif_h, unif_next],
                      counter=counter)
        shape = (M.n_states(h), M.A, M.n_states(h + 1))
        counts = np.bincount((S[h] * M.A + A[h]) * shape[2] + S[h + 1],
                             minlength=math.prod(shape)).reshape(shape)
        return cls(h, counts)

    def regression_for(self, f_values):
        """Weighted least-squares instance with targets E-hat[f(x') | x, a]."""
        f = np.asarray(f_values, dtype=float)
        s1 = self.counts @ f
        s2 = self.counts @ (f * f)
        keep = self.pair_counts > 0
        cnt = self.pair_counts[keep]
        mean = s1[keep] / cnt
        offset = float(s2[keep].sum() - (cnt * mean * mean).sum())
        xs, acts = np.nonzero(keep)
        return RegressionData(layer=self.layer, xs=xs, acts=acts, ys=mean,
                              weights=cnt, offset=max(offset, 0.0))


@dataclass
class RepLearnResult:
    index: int
    iterations: int
    capped: bool
    gaps: list = field(default_factory=list)
    threshold: float = 0.0


def _min_loss(data, table, f_values, radius):
    reg = data.regression_for(f_values)
    Z = table[reg.xs, reg.acts]
    w = ball_constrained_least_squares(Z, reg.ys, radius, weights=reg.weights)
    resid = Z @ w - reg.ys
    return float((reg.weights * resid * resid).sum()) + reg.offset, w


def adversarial_gap(Phi, phi_current, f: Discriminator, data: RepLearnDataset,
                    config: RepLearnConfig):
    """Advantage of the best competitor over the current candidate on f."""
    d = Phi.d
    _, r_big, r_small, _ = config.resolve(d, data.n, len(Phi.candidates))
    f_values = f.values(Phi, data.layer + 1)
    tables = Phi.tables_at(data.layer)
    own, _ = _min_loss(data, tables[phi_current], f_values, r_big)
    best = min(_min_loss(data, tab, f_values, r_small)[0] for tab in tables)
    return own - best


def discriminator_search(Phi, phi_current, data: RepLearnDataset,
                         config: RepLearnConfig, rng):
    """Best-effort maximizer of the adversarial gap over the discriminator class.

    Enumerates the feature candidate inside the discriminator and optimizes
    its unit direction: a seed sweep (canonical directions, a dense angular
    sweep when d = 2, and random restarts) followed by a monotone hill climb
    with adaptive step size from the most promising seeds.  The best
    evaluated point is tracked throughout, so the result is never worse
    than any seed.
    """
    d = Phi.d
    _, r_big, r_small, _ = config.resolve(d, data.n, len(Phi.candidates))
    tables_h = Phi.tables_at(data.layer)
    cur_tab = tables_h[phi_current]
    next_tables = Phi.tables_at(data.layer + 1)

    def gap_and_grad(theta, ftab):
        fvals = ftab @ theta
        amax = fvals.argmax(axis=1)
        fv = fvals[np.arange(ftab.shape[0]), amax]
        own, w_own = _min_loss(data, cur_tab, fv, r_big)
        best = np.inf
        w_best, tab_best = None, None
        for tab in tables_h:
            loss, w = _min_loss(data, tab, fv, r_small)
            if loss < best:
                best, w_best, tab_best = loss, w, tab
        # envelope gradient: the fitted weights are held fixed, only the
        # discriminator targets move with theta
        diff = tab_best @ w_best - cur_tab @ w_own
        s = np.tensordot(data.counts, diff, axes=([0, 1], [0, 1]))
        grad = 2.0 * (s[:, None] * ftab[np.arange(ftab.shape[0]), amax]).sum(axis=0)
        return own - best, grad

    best_gap, best_disc = -np.inf, None
    for fi, ftab in enumerate(next_tables):
        seeds = [e for i in range(d) for e in (np.eye(d)[i], -np.eye(d)[i])]
        if d == 2:
            angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
            seeds.extend(np.stack([np.cos(angles), np.sin(angles)], axis=1))
        extra = rng.standard_normal((max(config.restarts, 1), d))
        seeds.extend(u / max(np.linalg.norm(u), 1e-12) for u in extra)
        scored = []
        for theta0 in seeds:
            theta0 = np.asarray(theta0, dtype=float)
            gap, grad = gap_and_grad(theta0, ftab)
            scored.append((gap, theta0, grad))
            if gap > best_gap:
                best_gap, best_disc = gap, Discriminator(theta0.copy(), fi)
        scored.sort(key=lambda item: -item[0])
        for gap, theta, grad in scored[:3]:
            step = config.step_size
            for _ in range(config.grad_steps):
                cand = theta + step * grad
                nrm = np.linalg.norm(cand)
                if nrm < 1e-12:
                    break
                cand = cand / nrm
                g2, grad2 = gap_and_grad(cand, ftab)
                if g2 > gap:
                    theta, gap, grad = cand, g2, grad2
                    step *= 1.3
                    if gap > best_gap:
                        best_gap, best_disc = gap, Discriminator(theta.copy(), fi)
                else:
                    step *= 0.5
                    if step < 1e-7:
                        break
    return best_disc, best_gap


def feature_selection(Phi, discriminators, data: RepLearnDataset,
                      config: RepLearnConfig):
    """argmin over candidates of the summed best-response losses."""
    if not discriminators:
        raise VoxlabError("need at least one discriminator")
    d = Phi.d
    _, _, r_small, _ = config.resolve(d, data.n, len(Phi.candidates))
    tables = Phi.tables_at(data.layer)
    f_values = [f.values(Phi, data.layer + 1) for f in discriminators]
    best_idx, best_total = 0, np.inf
    for i, tab in enumerate(tables):
        total = sum(_min_loss(data, tab, fv, r_small)[0] for fv in f_values)
        if total < best_total:
            best_idx, best_total = i, total
    return best_idx


def rep_learn(M, h, Phi, P, n, config: RepLearnConfig, rng,
              counter=None) -> RepLearnResult:
    """Select a feature index for layer h from mixture roll-in data."""
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
    """
    rng = np.random.default_rng(0) if rng is None else rng
    d = Phi.d
    occ = mixture_occupancy(M, as_distribution(P), h)
    weights = np.repeat(occ[:, None] / M.A, M.A, axis=1).ravel()
    tab = Phi.tables_at(h)[index]
    Z = tab.reshape(-1, d)
    mu = M.mu[h]
    phistar = M.phi[h].reshape(-1, d)
    dirs = [np.eye(d)[i] * s for i in range(d) for s in (1.0, -1.0)]
    while len(dirs) < n_dirs:
        u = rng.standard_normal(d)
        nrm = np.linalg.norm(u)
        if nrm > 1e-12:
            dirs.append(u / nrm)
    worst = 0.0
    radius = 3.0 * d ** 1.5
    for ftab in Phi.tables_at(h + 1):
        for theta in dirs:
            fvals = (ftab @ theta).max(axis=1)
            w_f = mu.T @ fvals
            targets = phistar @ w_f
            w = ball_constrained_least_squares(Z, targets, radius,
                                               weights=weights)
            resid = Z @ w - targets
            worst = max(worst, float((weights * resid * resid).sum()))
    return worst
