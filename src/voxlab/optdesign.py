"""Frank-Wolfe construction of generalized optimal designs.

Maximizes the regularized log-det objective over distributions on an
implicit family of PSD matrices, reached only through two oracles: an
approximate linear optimizer (index achieving roughly the largest trace
inner product with a given unit-Frobenius matrix) and an estimator mapping
a distribution over indices to the mixture matrix.  Terminates once the
certificate Tr(M_P^-1 W_z) at the oracle's proposed index drops to (1+C)d,
which with exact oracles makes the output a true (C, gamma)-design.
"""

from __future__ import annotations

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
    fro_clips: int = 0

    @property
    def support_size(self):
        return len(self.P)


def fw_iteration_bound(C, gamma, d):
    """Iterations sufficient for termination with conforming oracles."""
    return math.ceil(16.0 / (gamma**2 * C**2 * d) * math.log(1.0 + 1.0 / gamma))


def _clean_psd(W, d, fro_cap):
    """Symmetrize, reject clearly non-PSD output, clip dust, cap the norm."""
    W = np.asarray(W, dtype=float)
    if W.shape != (d, d):
        raise VoxlabError(f"lin_est returned shape {W.shape}, expected ({d}, {d})")
    W = psd_part(W, "lin_est output")
    clipped = False
    fro = float(np.linalg.norm(W))
    if fro > fro_cap:
        W = W * (fro_cap / fro)
        clipped = True
    return W, clipped


def _chol_inverse(M):
    """Inverse and log-det through a Cholesky solve (no explicit inv)."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise VoxlabError("design matrix is not positive definite") from exc
    eye = np.eye(M.shape[0])
    Minv = np.linalg.solve(L.T, np.linalg.solve(L, eye))
    logdet = 2.0 * float(np.log(np.diag(L)).sum())
    return 0.5 * (Minv + Minv.T), logdet


def fw_optdesign(lin_opt, lin_est, C, gamma, d, max_iters=None) -> DesignState:
    """Build a (C, gamma)-generalized optimal design over the oracle family.

    lin_opt maps a d x d query to a hashable index, lin_est an {index: weight}
    dict to its mixture matrix.  Step size mu = C*gamma^2*d/8; each round
    queries lin_opt at M_t^-1/||M_t^-1||_F and mixes the returned index in
    unless its certificate already meets the (1+C)d termination test, then
    renormalizes, so lin_est only sees weights summing to 1.  max_iters=None
    caps at 2 * fw_iteration_bound: 27,635,020 at C = 2, gamma = 1e-3, d = 2.
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
    trace = []
    clips = 0
    cert = None
    for t in range(1, max_iters + 1):
        West, c1 = _clean_psd(lin_est(P), d, fro_cap)
        M = gamma * np.eye(d) + West
        Minv, logdet = _chol_inverse(M)
        query = Minv / np.linalg.norm(Minv)
        z = lin_opt(query)
        Wz, c2 = _clean_psd(lin_est({z: 1.0}), d, fro_cap)
        clips += int(c1) + int(c2)
        cert = float(np.trace(Minv @ Wz))
        trace.append((t, logdet, cert))
        if cert <= (1.0 + C) * d:
            return DesignState(P=P, M=M, iterations=t, certificate=cert,
                               trace=trace, fro_clips=clips)
        P = {k: (1.0 - mu) * w for k, w in P.items()}
        P[z] = P.get(z, 0.0) + mu
        total = sum(P.values())
        P = {k: w / total for k, w in P.items()}
    raise BudgetError(
        f"fw_optdesign did not terminate in {max_iters} iterations "
        f"(termination bound for conforming oracles is {bound})",
        iterations=max_iters, certificate=cert,
    )


def design_certificate(P, Ws, gamma):
    """Exact sup over an enumerated family of Tr(M_P^-1 W_z).

    Ws is the test family (sequence of PSD matrices) and P a {index: weight}
    dict whose indices index Ws.
    """
    Ws = [np.asarray(W, dtype=float) for W in Ws]
    if not Ws:
        raise VoxlabError("empty test family")
    d = Ws[0].shape[0]
    M = gamma * np.eye(d)
    for z, w in P.items():
        M = M + w * Ws[z]
    Minv, _ = _chol_inverse(M)
    return max(float(np.trace(Minv @ W)) for W in Ws)
