"""Exact verification utilities for covers, designs, and reachability.

Everything here works from the true factorization and nothing samples:
occupancies, second moments and occupancy maxima come from `simenv`'s exact
primitives (the maxima by backward DP over deterministic policies, enough
because layer occupancy is affine in each per-state action choice), design
inverses from `optdesign._chol_inverse`, and every occupancy ratio from
`check_policy_cover`."""

from __future__ import annotations

import math

import numpy as np

from voxlab.core import Policy, PolicyDistribution, VoxlabError, as_distribution
from voxlab.optdesign import _chol_inverse
from voxlab.simenv import (
    _density_norms,
    argmax_policy,
    exact_feature_expectation,
    exact_occupancy,
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
    ``alpha`` and ``eps`` must be finite and >= 0.  A bare Policy's cover
    mass is its occupancy, the bits of its point mass's (0 + 1.0 x = x).
    """
    for name, val in (("alpha", alpha), ("eps", eps)):
        if not (math.isfinite(val) and val >= 0.0):
            raise VoxlabError(f"{name} must be finite and >= 0, got {val}")
    policies = [P] if isinstance(P, Policy) else as_distribution(P).policies
    maxima = max_occupancies(M, h)
    scale = _density_norms(M, h) if h >= 1 else np.ones(M.n_states(0))
    if mode == "expectation":
        vals = (exact_occupancy if isinstance(P, Policy)
                else mixture_occupancy)(M, P, h)
    elif mode == "max":
        vals = np.max([exact_occupancy(M, pi, h) for pi in policies], axis=0)
    else:
        raise VoxlabError(f"unknown mode {mode!r}")
    qualifying = (maxima >= eps * scale) & (maxima > 0.0)
    measured = float(np.min(vals[qualifying] / maxima[qualifying], initial=math.inf))
    witnesses = np.nonzero(qualifying & (vals < alpha * maxima - 1e-9))[0].tolist()
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
    Minv = _chol_inverse(Mmat)[0]
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
    """Lower bound on sup_pi lambda_min(E^pi[phi phi^T]) by concave FW;
    clipped at 0, since a rank-deficient second moment can read -1e-17."""
    feat = M.phi[h]
    S = exact_second_moment(M, Policy.uniform(M, 0, h), feat, h)

    def lam(Smat):
        return float(np.linalg.eigvalsh(Smat)[0])

    best = lam(S)
    for _ in range(iters):
        v = np.linalg.eigh(S)[1][:, 0]
        g = (feat @ v) ** 2
        S_t = exact_second_moment(M, argmax_policy(M, h, g), feat, h)
        grid = np.linspace(0.0, 1.0, 33)[1:]
        cand = [(lam((1 - a) * S + a * S_t), a) for a in grid]
        val, a_best = max(cand)
        if val <= best + 1e-14:
            break
        S = (1 - a_best) * S + a_best * S_t
        best = val
    return max(best, 0.0)


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
    gs = [feat @ theta for theta in dirs]
    return min(max(max_value(M, h, g), max_value(M, h, -g)) for g in gs)


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
    the reachable feature expectations at layer h-1 and inverts the alpha
    `check_policy_cover` measures for the uniform mixture of its policies.
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
    P = PolicyDistribution(chosen, np.full(d, 1.0 / d))
    alpha = check_policy_cover(M, P, h, alpha=0.0, eps=0.0)["alpha_measured"]
    return {"ratio": 1.0 / alpha if alpha > 0 else math.inf, "layer": int(h),
            "rounds": state.rounds, "d": int(d)}
