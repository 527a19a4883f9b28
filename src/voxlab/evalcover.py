"""Exact verification utilities for covers, designs, and reachability.

Everything here works from the true factorization with exact occupancy
computations; nothing samples.  Per-state occupancy maxima over all
policies are computed by backward DP over deterministic policies, which is
sufficient because layer occupancy is affine in each per-state action
choice.
"""

from __future__ import annotations

import math

import numpy as np

from voxlab.core import Policy, VoxlabError, as_distribution
from voxlab.simenv import (
    argmax_policy,
    exact_feature_expectation,
    exact_occupancy,
    exact_occupancy_sa,
    exact_policy_value,
    exact_q_tables,
    exact_second_moment,
    max_occupancies,
    max_value,
    mixture_occupancy,
    reachability_eta,
)
from voxlab.spanner import robust_spanner


def check_policy_cover(M, P, h, alpha, eps, mode="expectation"):
    """Verify an (alpha, eps)-policy cover claim at layer h.

    Qualifying states are those whose best-policy occupancy is at least
    eps * ||mu(x)||.  In "expectation" mode the cover mass at x is the
    mixture occupancy E_{pi~P}[d^pi(x)]; in "max" mode (set covers) it is
    the best occupancy over the support.  Measured alpha is the worst
    qualifying ratio of cover mass to maximal occupancy (tolerance 1e-9).
    """
    P = as_distribution(P)
    maxima = max_occupancies(M, h)
    if h >= 1:
        scale = np.linalg.norm(M.mu[h - 1], axis=1)
    else:
        scale = np.ones(M.n_states(0))
    if mode == "expectation":
        vals = mixture_occupancy(M, P, h)
    elif mode == "max":
        vals = np.max([exact_occupancy(M, pi, h) for pi in P.policies], axis=0)
    else:
        raise VoxlabError(f"unknown mode {mode!r}")
    qualifying = (maxima >= eps * scale) & (maxima > 0.0)
    witnesses = []
    measured = math.inf
    for x in np.nonzero(qualifying)[0]:
        ratio = float(vals[x] / maxima[x])
        measured = min(measured, ratio)
        if vals[x] < alpha * maxima[x] - 1e-9:
            witnesses.append(int(x))
    return {
        "passed": not witnesses,
        "alpha_measured": measured,
        "alpha_required": float(alpha),
        "eps": float(eps),
        "mode": mode,
        "layer": int(h),
        "n_qualifying": int(qualifying.sum()),
        "witnesses": witnesses,
    }


def check_design_on_policies(M, feat, P, gamma, C, h):
    """Exact design certificate over all deterministic policies.

    Builds M_P = gamma*I + E_{pi~P} E^pi[phi phi^T] at layer h for the given
    feature table and returns sup over deterministic policies of
    Tr(M_P^-1 E^pi[phi phi^T]), which is a backward-DP maximum of the
    state-action functional phi^T M_P^-1 phi.
    """
    P = as_distribution(P)
    feat = np.asarray(feat, dtype=float)
    d = feat.shape[2]
    Mmat = gamma * np.eye(d)
    for pi, w in zip(P.policies, P.weights):
        Mmat = Mmat + w * exact_second_moment(M, pi, feat, h)
    Minv = np.linalg.solve(Mmat, np.eye(d))
    Minv = 0.5 * (Minv + Minv.T)
    g = np.einsum("xad,de,xae->xa", feat, Minv, feat)
    sup = max_value(M, h, g)
    bound = (1.0 + 1.5 * C) * d
    return {"sup": float(sup), "bound": float(bound), "passed": bool(sup <= bound),
            "layer": int(h)}


def pdl_check(M, pi, pi_star, reward_tables):
    """Residual of the performance-difference identity for (pi, pi_star)."""
    tables = [np.asarray(t, dtype=float) for t in reward_tables]
    L = len(tables) - 1
    lhs = exact_policy_value(M, pi_star, tables) - exact_policy_value(M, pi, tables)
    Q = exact_q_tables(M, pi, tables)
    rhs = 0.0
    for t in range(L + 1):
        occ = exact_occupancy(M, pi_star, t)
        gap = ((pi_star.table(t) - pi.table(t)) * Q[t]).sum(axis=1)
        rhs += float(occ @ gap)
    return abs(lhs - rhs)


def _feature_coverage_eta(M, h, iters=300):
    """Lower bound on sup_pi lambda_min(E^pi[phi phi^T]) by concave FW."""
    feat = M.phi[h]
    d = feat.shape[2]
    occ = exact_occupancy_sa(M, Policy.uniform(M, 0, h), h)
    S = np.einsum("xa,xad,xae->de", occ, feat, feat)

    def lam(Smat):
        return float(np.linalg.eigvalsh(Smat)[0])

    best = lam(S)
    for _ in range(iters):
        vals, vecs = np.linalg.eigh(S)
        v = vecs[:, 0]
        g = (feat @ v) ** 2
        pi_t = argmax_policy(M, h, g)
        occ_t = exact_occupancy_sa(M, pi_t, h)
        S_t = np.einsum("xa,xad,xae->de", occ_t, feat, feat)
        grid = np.linspace(0.0, 1.0, 33)[1:]
        cand = [(lam((1 - a) * S + a * S_t), a) for a in grid]
        val, a_best = max(cand)
        if val <= best + 1e-14:
            break
        S = (1 - a_best) * S + a_best * S_t
        best = val
    return best


def _explorability_eta(M, h, n_dirs, rng):
    """min over sampled unit directions of sup_pi |theta^T E^pi[phi]|.

    The direction grid always includes the canonical axes and every
    normalized mu row of the next layer, which makes the comparison with
    reachability exact rather than grid-limited.
    """
    feat = M.phi[h]
    d = feat.shape[2]
    dirs = [np.eye(d)[i] for i in range(d)]
    for row in M.mu[h]:
        nrm = np.linalg.norm(row)
        if nrm > 0:
            dirs.append(row / nrm)
    while len(dirs) < n_dirs + d + len(M.mu[h]):
        u = rng.standard_normal(d)
        nrm = np.linalg.norm(u)
        if nrm > 1e-12:
            dirs.append(u / nrm)
    worst = math.inf
    for theta in dirs:
        g = feat @ theta
        val = max(max_value(M, h, g), max_value(M, h, -g))
        worst = min(worst, val)
    return worst


def reachability_diagnostics(M, n_dirs=64, rng=None):
    """Reachability, feature-coverage, and explorability constants.

    Feature coverage is a Frank-Wolfe lower bound on the concave maximum;
    explorability is a grid minimum (an upper bound on the true infimum)
    over directions that include the exact mu rows, so both implication
    checks remain sound.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    reach = [reachability_eta(M, h) for h in range(1, M.H)]
    cov = [_feature_coverage_eta(M, h) for h in range(M.H - 1)]
    expl = [_explorability_eta(M, h, n_dirs, rng) for h in range(M.H - 1)]
    tol = 1e-9
    cov_ok = all(reach[h] >= (cov[h] / 2.0) ** 1.5 - tol for h in range(M.H - 1))
    expl_ok = all(reach[h] >= expl[h] - tol for h in range(M.H - 1))
    return {
        "eta_reach": min(reach),
        "eta_cov": min(cov),
        "eta_expl": min(expl),
        "reach_by_layer": reach,
        "cov_by_layer": cov,
        "expl_by_layer": expl,
        "cov_implies_reach": bool(cov_ok),
        "expl_implies_reach": bool(expl_ok),
    }


def coverability_ratio(M, h):
    """Worst occupancy ratio against the spanner-mixture measure at layer h.

    Builds an exact-oracle (1.0075, 1e-9)-approximate barycentric spanner of
    the reachable feature expectations at layer h-1 and compares every
    state's maximal occupancy to the uniform mixture of its policies'.
    """
    if h < 1:
        raise VoxlabError("coverability is defined from layer 1 on")
    feat = M.phi[h - 1]
    d = feat.shape[2]
    state = robust_spanner(
        lambda theta: argmax_policy(M, h - 1, feat @ theta),
        lambda pi: exact_feature_expectation(M, pi, feat, h - 1), 1.0075, 1e-9, d)
    chosen = [pi if pi is not None else Policy.uniform(M, 0, h - 1)
              for pi in state.indices]
    rho = np.mean([exact_occupancy(M, pi, h) for pi in chosen], axis=0)
    maxima = max_occupancies(M, h)
    live = maxima > 0
    if not live.any():
        return {"ratio": 0.0, "layer": int(h), "rounds": state.rounds}
    with np.errstate(divide="ignore"):
        ratios = np.where(rho[live] > 0, maxima[live] / np.maximum(rho[live], 1e-300),
                          math.inf)
    return {"ratio": float(ratios.max()), "layer": int(h), "rounds": state.rounds,
            "d": int(d)}
