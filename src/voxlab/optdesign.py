"""Frank-Wolfe construction of generalized optimal designs.

Maximizes the regularized log-det objective over distributions on an
implicit family of PSD matrices, reached only through two oracles: an
approximate linear optimizer (index achieving roughly the largest trace
inner product with a given unit-Frobenius matrix) and an estimator mapping
a distribution over indices to the mixture matrix.  Terminates once the
certificate Tr(M_P^-1 W_z) at the oracle's proposed index drops to (1+C)d,
which with exact oracles makes the output a true (C, gamma)-design.  Each
step mixes the proposed index in with the exact line-search weight: the
Fedorov-Wynn step of D-optimal design (Todd, *Minimum-Volume Ellipsoids*,
2016), floored at the paper's step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from voxlab.core import BudgetError, VoxlabError, psd_part


@dataclass
class DesignState:
    """Output of fw_optdesign: the distribution plus run diagnostics."""

    P: dict
    M: np.ndarray
    iterations: int
    certificate: float
    trace: list = field(default_factory=list)
    steps: list = field(default_factory=list)

    @property
    def support_size(self):
        return len(self.P)


def fw_iteration_bound(C, gamma, d):
    """Iterations sufficient for termination with conforming oracles.

    The analysis takes the step mu = C*gamma^2*d/8.  `fw_optdesign` takes
    the exact maximizer of the same concave log det along the same segment,
    floored at mu, which gains at least as much as the step mu does, so the
    bound holds for it too.
    """
    return math.ceil(16.0 / (gamma**2 * C**2 * d) * math.log(1.0 + 1.0 / gamma))


def _clean_psd(W, d, fro_cap):
    """Symmetrize, reject clearly non-PSD output, clip dust, cap the norm."""
    W = np.asarray(W, dtype=float)
    if W.shape != (d, d):
        raise VoxlabError(f"lin_est returned shape {W.shape}, expected ({d}, {d})")
    W = psd_part(W, "lin_est output")
    fro = float(np.linalg.norm(W))
    if fro > fro_cap:
        W = W * (fro_cap / fro)
    return W


def _chol_inverse(M):
    """Inverse, log-det and Cholesky factor L, through a Cholesky solve (no
    explicit inv)."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise VoxlabError("design matrix is not positive definite") from exc
    eye = np.eye(M.shape[0])
    Minv = np.linalg.solve(L.T, np.linalg.solve(L, eye))
    logdet = 2.0 * float(np.log(np.diag(L)).sum())
    return 0.5 * (Minv + Minv.T), logdet, L


def _line_search(L, D, mu):
    """The maximizer over a in [0, 1] of log det(M + a D), for M = L L^T and
    M + D positive definite, floored at mu.

    With lam the eigenvalues of L^-1 D L^-T, the objective is log det M plus
    sum(log(1 + a lam)), concave, with slope sum(lam / (1 + a lam)); 60
    bisection steps on the slope's sign place its zero within 2^-60.  The
    slope sums Python floats left to right, as `np.sum` does below 8 terms.
    """
    lam = np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, D).T)).tolist()

    def slope(a):
        return functools.reduce(lambda total, x: total + x / (1.0 + a * x), lam, 0.0)

    if slope(1.0) >= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return max(lo, mu)


def fw_optdesign(lin_opt, lin_est, C, gamma, d, max_iters=None) -> DesignState:
    """Build a (C, gamma)-generalized optimal design over the oracle family.

    lin_opt maps a d x d query to a hashable index, lin_est an {index: weight}
    dict to its mixture matrix.  Each round queries lin_opt at
    M_t^-1/||M_t^-1||_F and, unless the returned index's certificate already
    meets the (1+C)d termination test, mixes it in with the step a that
    maximizes log det(M_t + a (W_z - W_P)) over [0, 1], floored at mu =
    C*gamma^2*d/8 (`_line_search`; it reads only the two estimates the
    round has already made), then renormalizes, so lin_est only sees
    weights summing to 1.  Indices whose weight falls to 0 leave the
    design.  ``steps`` records each round's a.  max_iters=None caps at 2 *
    fw_iteration_bound: 27,635,020 at C = 2, gamma = 1e-3, d = 2.
    """
    if not 1.0 < C <= 2.0:
        raise VoxlabError(f"C must be in (1, 2], got {C}")
    if not 0.0 < gamma < 1.0:
        raise VoxlabError(f"gamma must be in (0, 1), got {gamma}")
    bound = fw_iteration_bound(C, gamma, d)
    if max_iters is None:
        max_iters = 2 * bound
    mu = C * gamma**2 * d / 8.0
    fro_cap = 1.0 + C * gamma**2 / 10.0
    z1 = lin_opt(np.eye(d) / math.sqrt(d))
    P = {z1: 1.0}
    trace, steps = [], []
    cert = None
    for t in range(1, max_iters + 1):
        West = _clean_psd(lin_est(P), d, fro_cap)
        M = gamma * np.eye(d) + West
        Minv, logdet, L = _chol_inverse(M)
        query = Minv / np.linalg.norm(Minv)
        z = lin_opt(query)
        Wz = _clean_psd(lin_est({z: 1.0}), d, fro_cap)
        cert = float(np.trace(Minv @ Wz))
        trace.append((t, logdet, cert))
        if cert <= (1.0 + C) * d:
            return DesignState(P=P, M=M, iterations=t, certificate=cert,
                               trace=trace, steps=steps)
        a = _line_search(L, Wz - West, mu)
        steps.append(a)
        P = {k: (1.0 - a) * w for k, w in P.items()}
        P[z] = P.get(z, 0.0) + a
        total = sum(P.values())
        P = {k: w / total for k, w in P.items() if w > 0.0}
    raise BudgetError(
        f"fw_optdesign did not terminate in {max_iters} iterations "
        f"(termination bound for conforming oracles is {bound})",
        iterations=max_iters, certificate=cert,
    )
