"""Monte-Carlo moment estimators over policy roll-ins.

est_vec and est_mat average a state-action functional at one layer over n
independent episodes.  Both accept a single Policy or a PolicyDistribution
(every episode draws its own policy from a mixture), and both read only the
(x_h, a_h) visit counts, which ``simenv.sample_trajectories`` draws from
their exact multinomial law.

The functional F is a dense table indexed by (state, action) with
arbitrary trailing shape.
"""

from __future__ import annotations

import numpy as np

from voxlab.core import VoxlabError, psd_part
from voxlab.simenv import sample_trajectories


def visit_counts(M, h, pi, n, rng, counter=None):
    """Empirical (state, action) visit counts at layer h over n episodes."""
    return sample_trajectories(M, pi, n, rng, upto=h, counter=counter)[0]


def est_vec(M, h, F, pi, n, rng, counter=None):
    """Average of F(x_h, a_h) over n roll-ins of pi (EstVec)."""
    if n < 1:
        raise VoxlabError(f"n must be >= 1, got {n}")
    table = np.asarray(F, dtype=float)
    if table.shape[:2] != (M.n_states(h), M.A):
        raise VoxlabError(
            f"F table has leading shape {table.shape[:2]}, expected "
            f"({M.n_states(h)}, {M.A}) at layer {h}"
        )
    counts = visit_counts(M, h, pi, n, rng, counter=counter)
    return np.tensordot(counts.astype(float), table, axes=([0, 1], [0, 1])) / n


def est_mat(M, h, F, pi, n, rng, counter=None):
    """Average of a PSD matrix functional at layer h; output stays PSD (EstMat)."""
    out = est_vec(M, h, F, pi, n, rng, counter=counter)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise VoxlabError(f"est_mat needs a square matrix functional, got {out.shape}")
    return psd_part(out, "matrix functional")
