"""Approximate barycentric spanners via linear-optimization oracles.

Two-phase scheme over an implicit family of vectors in the unit ball.
Phase 1 fills the d working columns one at a time along cofactor
directions; phase 2 keeps swapping any column whose direction admits a
family member improving |det| by a factor C, so |det| grows geometrically
and the total number of column placements is bounded.  Oracles: lin_opt
maps a unit direction to a family index (approximate argmax of the inner
product), lin_est maps an index to its vector.  Both are read as functions:
lin_opt of its query's bytes and lin_est of the (hashable) index, so a
spanner runs each once per distinct argument.  Column i's direction comes
from the other columns' cofactors alone, so a column whose neighbours have
not moved since its last probe asks the same query again, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from voxlab.core import BudgetError, VoxlabError

DEGENERATE_TOL = 1e-14


@dataclass
class SpannerState:
    """Chosen indices and their (perturbed) working vectors as columns of W."""

    W: np.ndarray
    indices: list
    rounds: int
    oracle_calls: int
    opt_calls: int
    est_calls: int


def spanner_rounds_bound(C, eps, d):
    """Column placements sufficient for termination with conforming oracles."""
    return d + math.ceil(d / 2.0 * math.log(100.0 * d / eps**2) / math.log(C))


def spanner_direction(W, i):
    """theta with theta.v = det of W after replacing column i by v.

    One LU determinant per coordinate, of W with column i set to that unit
    vector, so theta never reads column i.
    """
    W = np.asarray(W, dtype=float)
    d = W.shape[0]
    theta = np.zeros(d)
    for j in range(d):
        Mod = W.copy()
        Mod[:, i] = 0.0
        Mod[j, i] = 1.0
        theta[j] = np.linalg.det(Mod)
    return theta


def robust_spanner(lin_opt, lin_est, C, eps, d, max_rounds=None) -> SpannerState:
    """Compute a (C, O(d*eps))-approximate barycentric spanner.

    Counts one round per column placement (d in phase 1, one per phase-2
    swap) and 4 oracle_calls per probed column; opt_calls counts the lin_opt
    runs, one per distinct query, and est_calls the lin_est runs, one per
    distinct index (a repeat reads the stored answer).  Raises
    BudgetError past max_rounds, which defaults to the termination bound for
    conforming oracles.
    """
    if not (math.isfinite(C) and C > 1.0):
        raise VoxlabError(f"C must exceed 1 and be finite, got {C}")
    if not 0.0 < eps < 1.0:
        raise VoxlabError(f"eps must be in (0, 1), got {eps}")
    bound = spanner_rounds_bound(C, eps, d)
    if max_rounds is None:
        max_rounds = bound
    W = np.eye(d)
    indices: list = [None] * d
    rounds = 0
    calls = 0
    opt: dict = {}
    est: dict = {}

    def optimize(theta_hat):
        key = theta_hat.tobytes()
        if key not in opt:
            opt[key] = lin_opt(theta_hat)
        return opt[key]

    def estimate(z):
        if z not in est:
            est[z] = np.array(lin_est(z), dtype=float)
        return est[z]

    def place(i, first):
        """Probe column i at +theta, then -theta; place the better (first)
        or the first to grow |det| by C (a swap).  True if one was placed."""
        nonlocal rounds, calls
        theta = spanner_direction(W, i)
        nrm = np.linalg.norm(theta)
        if nrm < DEGENERATE_TOL:
            return False
        theta_hat = theta / nrm
        base = C * abs(theta @ W[:, i])
        zp = optimize(theta_hat)
        wp = estimate(zp)
        zm = optimize(-theta_hat)
        wm = estimate(zm)
        calls += 4
        # a swap must clear base, strictly at base 0 (a zero column), where a
        # probe off by exactly eps would put the zero column back every round
        gp, gm = theta @ wp + eps * nrm, -(theta @ wm) + eps * nrm
        if first:
            plus = theta_hat @ wp >= -(theta_hat @ wm)
        elif gp > base or gp == base > 0.0:
            plus = True
        elif gm > base or gm == base > 0.0:
            plus = False
        else:
            return False
        W[:, i] = wp + eps * theta_hat if plus else wm - eps * theta_hat
        indices[i] = zp if plus else zm
        rounds += 1
        if rounds > max_rounds:
            raise BudgetError(
                f"robust_spanner exceeded {max_rounds} rounds "
                f"(termination bound for conforming oracles is {bound})"
            )
        return True

    for i in range(d):
        place(i, True)
    while any(place(i, False) for i in range(d)):
        pass
    return SpannerState(W=W, indices=indices, rounds=rounds, oracle_calls=calls,
                        opt_calls=len(opt), est_calls=len(est))


def verify_spanner(W, tests, C, eps):
    """Check the spanner guarantee for each test vector against basis W.

    Coefficients come from the exact linear solve; a vector passes when
    max|beta| <= C + 1e-9 and the reconstruction residual is within
    3*C*d*eps/2 + 1e-9.
    """
    tol = 1e-9
    W = np.asarray(W, dtype=float)
    d = W.shape[0]
    try:
        betas = np.linalg.solve(W, np.asarray(tests, dtype=float).T).T
    except np.linalg.LinAlgError as exc:
        raise VoxlabError("singular spanner basis") from exc
    out = []
    limit = 3.0 * C * d * eps / 2.0
    for v, beta in zip(np.asarray(tests, dtype=float), betas):
        residual = float(np.linalg.norm(v - W @ beta))
        passed = bool(np.abs(beta).max() <= C + tol and residual <= limit + tol)
        out.append({"beta": beta, "residual": residual, "passed": passed})
    return out
