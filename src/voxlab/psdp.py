"""Policy Search by Dynamic Programming.

Backward layer-by-layer regression of roll-out returns followed by greedy
policy extraction.  The regression reads only each (x, a) cell's count and
return sum, taken from the count chains `simenv.sample_trajectories` draws,
so no cost grows with the number of roll-outs.  Used as the approximate
linear-optimization oracle by both the design loop (quadratic rewards on a
learned feature map) and the spanner loop (linear rewards), and for
downstream reward optimization.

All layer indices are 0-based positions within the horizon; `psdp(M, h,
rewards, Phi, radius, ...)` takes layer h's reward as its Q-function, fits
layers h-1, ..., 0 over the ball of that radius on Phi's candidates, and
returns a policy over [0..h].
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from voxlab.core import Policy, VoxlabError
from voxlab.simenv import _reward_table, sample_trajectories

NORM_EPS = 1e-10


def quadratic_reward(mat, feat):
    """The (n, A) table phi(x, a)^T mat phi(x, a) of the (n, A, d) feature
    table feat, clipped to [0, ||mat||_op] (the float `norm(mat, 2)` gives,
    read off the SVD), its range by Cauchy-Schwarz when ||phi|| <= 1, so the
    regression targets stay inside the bounds the guarantees assume."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise VoxlabError(f"quadratic reward needs a square matrix, got {mat.shape}")
    vals = np.einsum("xad,de,xae->xa", feat, mat, feat)
    return np.clip(vals, 0.0, float(np.linalg.svd(mat, compute_uv=False)[0]))


def linear_reward(theta, feat):
    """The (n, A) table phi(x, a)^T theta of the (n, A, d) feature table
    feat, clipped to [-||theta||, ||theta||]."""
    theta = np.asarray(theta, dtype=float)
    bound = float(np.linalg.norm(theta))
    return np.clip(feat @ theta, -bound, bound)


@dataclass
class FittedValue:
    """Result of fit_value_class: chosen feature index, weights, Q table and
    loss (weighted squared residuals of the cell means)."""

    phi_index: int
    w: np.ndarray
    q_table: np.ndarray
    loss: float


class BallLeastSquares:
    """Ball-constrained least squares for one design Z (m, d) or a stack of
    K designs (K, m, d) whose rows share their weights: Z, the weights and
    their square roots, the thin SVD of each weighted design and its rank
    mask, kept for many solves and losses.  A stack is one batched SVD, and
    each slice equals its own one-design factor bit for bit."""

    def __init__(self, Z, weights=None):
        Z = np.asarray(Z, dtype=float)
        if Z.ndim not in (2, 3):
            raise VoxlabError(f"shape mismatch: Z {Z.shape} is not 2-d or 3-d")
        self.Z = Z
        # no weights are unit weights: multiplying by 1.0 is exact
        self.weights = (np.ones(Z.shape[-2]) if weights is None
                        else np.asarray(weights, dtype=float))
        self.root = np.sqrt(self.weights)
        self.U, self.s, self.Vt = np.linalg.svd(Z * self.root[:, None],
                                                full_matrices=False)
        # a zero largest singular value makes this mask s > 0
        self.pos = self.s > self.s[..., :1] * 1e-13
        # min_norm's operands with a target axis: U^T, V, s and the rank
        # mask, which is None when every singular value is kept
        self._Ut = self.U.swapaxes(-1, -2)[..., None, :, :]
        self._V = self.Vt.swapaxes(-1, -2)[..., None, :, :]
        self._s = self.s[..., None, :]
        self._mask = None if self.pos.all() else self.pos[..., None, :]

    def fit(self, Y, offsets, radius):
        """Losses and weights of the ball-constrained fits of every design to
        every row of the (S, m) targets Y: `solve_many`, then `losses`."""
        W = self.solve_many(Y, radius)
        return self.losses(W, Y, offsets), W

    def losses(self, W, Y, offsets):
        """Weighted squared residuals of the weights W against the target rows
        Y, summed per row, plus the rows' within-cell offsets: (S,) for one
        design and W (S, d), (K, S) for a stack and W (K, S, d)."""
        resid = matvec(self.Z[..., None, :, :], W) - Y
        return (self.weights * resid * resid).sum(axis=-1) + offsets

    def solve_many(self, Y, radius):
        """Minimizers over the ball ||w|| <= radius for every row of the (S, m)
        targets Y: (S, d) for one design, (K, S, d) for a stack.  `min_norm`,
        then `into_ball`."""
        if radius <= 0:
            raise VoxlabError("radius must be > 0")
        return self.into_ball(*self.min_norm(Y), radius)

    def min_norm(self, Y):
        """Rotated targets B = U^T (sqrt(w) y) and minimum-norm unconstrained
        solutions W of every design for every row of the (S, m) targets Y:
        (S, r) and (S, d) for one design, (K, S, r) and (K, S, d) for a stack.

        Each row is bit-identical to a one-target solve of one design: every
        product is a stacked matrix-vector product, the kernel a single
        target uses.  A factor that keeps every singular value divides
        plainly: the same bits as the masked divide, about 4% faster per
        discriminator scoring call on the benchmark's searches.
        """
        Y = np.ascontiguousarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.U.shape[-2]:
            raise VoxlabError(
                f"shape mismatch: Z has {self.U.shape[-2]} rows, y {Y.shape[1:]}")
        B = matvec(self._Ut, Y * self.root)
        if self._mask is None:
            coef = B / self._s
        else:
            coef = np.divide(B, self._s, out=np.zeros_like(B), where=self._mask)
        return B, matvec(self._V, coef)

    def into_ball(self, B, W, radius):
        """W with every row whose norm exceeds radius replaced by the ridge
        solution on the sphere, bisected one row at a time from its row of
        B; B and W as `min_norm` returns them for this factor."""
        outside = ~(row_norms(W) <= radius + NORM_EPS)
        if outside.any():
            W = W.copy()
            for idx in map(tuple, np.argwhere(outside)):
                W[idx] = _on_sphere(self.s[idx[:-1]], self.Vt[idx[:-1]], B[idx], radius)
        return W


def _on_sphere(s, Vt, b, radius):
    """Ridge solution whose norm is `radius` to within NORM_EPS, for the
    rotated target b = U^T y of one design with singular values s and
    right singular vectors Vt, by bisection on the ridge multiplier."""

    def norm_at(lam):
        c = s * b / (s * s + lam)
        return float(np.sqrt((c * c).sum()))

    lo, hi = 0.0, 1.0
    while norm_at(hi) > radius:
        hi *= 2.0
        if hi > 1e18:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        nm = norm_at(mid)
        if abs(nm - radius) <= NORM_EPS:
            lo = hi = mid
            break
        if nm > radius:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return Vt.T @ (s * b / (s * s + lam))


def matvec(A, X):
    """A @ x for every vector x on the last axis of X, broadcasting A over
    X's leading axes.  Written as a stack of matrix-vector products, so each
    result is bit-identical to `A @ x` on one vector; `A @ X.T` would use a
    matrix-matrix kernel that rounds differently."""
    return np.matmul(A, X[..., None])[..., 0]


def row_norms(X):
    """Euclidean norm of each vector on the last axis of X, bit-identical
    to `np.linalg.norm` of that vector (a dot product, then a square root)."""
    return np.sqrt(np.matmul(X[..., None, :], X[..., :, None]))[..., 0, 0]


def ball_constrained_least_squares(Z, y, radius, weights=None):
    """Exact minimizer of the (weighted) squared loss over the ball ||w|| <= radius.

    The one-row `BallLeastSquares(Z, weights).solve_many` for one design Z
    (m, d) and one target y (m,); the answers are bit-identical, since the
    same matrix gives the same SVD.  No library code calls it: only the
    benchmark's tracer (`voxbench/tracing.py`) looks it up by name.
    """
    if np.ndim(y) != 1 or np.ndim(Z) != 2:
        raise VoxlabError(f"shape mismatch: y {np.shape(y)} is not 1-d or Z "
                          f"{np.shape(Z)} is not 2-d")
    return BallLeastSquares(Z, weights).solve_many(np.asarray(y)[None], radius)[0]


class ObservedCells:
    """The cells of an (|X|, A) count table with a positive count, for the
    regressions weighted by those counts: ``index``, their flat indices
    x * A + a, and ``counts``, the counts there as floats.  The stacked
    factor of the last candidate stack given to `factor` is kept, so every
    fit on these cells against that stack shares it."""

    def __init__(self, counts):
        cnt = np.asarray(counts, dtype=float).ravel()
        self.index = (cnt > 0).nonzero()[0]
        if not self.index.size:
            raise VoxlabError("empty regression dataset")
        self.counts = cnt[self.index]
        for arr in (self.index, self.counts):
            arr.setflags(write=False)
        self._stack = self._factor = None

    def factor(self, T):
        """The stacked BallLeastSquares of the read-only candidate stack T
        (K, |X|, A, d) at these cells, weighted by their counts; the factor
        of the last stack given is kept."""
        if self._stack is not T:
            self._factor = BallLeastSquares(
                T.reshape(len(T), -1, T.shape[-1])[:, self.index], self.counts)
            self._stack = T
        return self._factor


def fit_value_class(Phi, t, cells, sums, radius):
    """Least-squares fit of {(x, a) -> phi(x, a)^T w : phi a candidate of
    Phi at layer t, ||w|| <= radius} to the `ObservedCells` of a layer-t
    count table: their mean targets, the return sums (read flat at
    x * A + a) over the counts, weighted by the counts.

    Every feature candidate is fitted with the cells' stacked factor of
    Phi's layer-t candidates and one solve of the ball-constrained
    regression; the lowest-loss pair is kept (lowest candidate index on
    ties).
    """
    T = Phi.tables_at(t)
    ys = np.asarray(sums, dtype=float).ravel()[cells.index] / cells.counts
    losses, W = cells.factor(T).fit(ys[None], 0.0, radius)
    i = int(losses[:, 0].argmin())
    return FittedValue(phi_index=i, w=W[i, 0], q_table=T[i] @ W[i, 0],
                       loss=float(losses[i, 0]))


def psdp(M, h, rewards, Phi, radius, covers, n, rng, counter=None, shared=None):
    """Backward regression of roll-out returns; returns a greedy policy on [0..h].

    ``rewards[t]`` is the (|X_t|, A) reward table of layer t.  Layer h has
    nothing above it, so its Q-function is ``rewards[h]``.  For t = h-1
    down to 0: draw n episodes with roll-in policy sampled from covers[t],
    a uniform action at layer t, and the already-built greedy suffix
    afterwards; fit the return-to-go at (x_t, a_t) over the ball of the
    radius on Phi's layer-t candidates; act greedily on the fit.  Layer
    h's roll-in is drawn too, and not read, so a query draws (h + 1) * n
    episodes.  Each layer's greedy table is built once, and the lower
    layers' tails and the returned policy share it.

    The draw is a count chain (`simenv.sample_trajectories`): the cell
    counts at t and, for each later layer, the counts of (cell at t, state
    and action there), of which layer h keeps only the states.  Each cell's
    return sum is its reward times its count plus, layer by layer, the
    chain's counts against that layer's rewards, with the reward's max
    applied to the states at h.  These sums and counts are all that the
    regression reads, so the fit has the law it would have on the same n
    episodes drawn one by one.

    ``shared`` is an optional memo, a dict that starts empty and that any
    queries may share.  Layer t's chain is keyed by everything its draw
    reads: (M, covers[t], h, n, t, the greedy actions on layers t+1..h-1),
    not the rewards, the radius or the greedy layer at h, whose actions the
    chain sums away.  The first query with a key draws and stores it; a
    later one reads it and applies its own rewards, exactly what a fresh
    draw of the same counts gives.  So among queries on one M, h, n and
    covers, layers h and h-1, whose keys hold no greedy layer, are drawn
    once per memo, and a lower layer once per distinct greedy suffix.  A
    stored chain below h keeps the `ObservedCells` of its counts at t
    beside it, so its factor is built once for all the queries that fit it.
    Each query's samples have a fresh draw's law; queries that share a key
    are dependent, and the spanner's union bound over its queries holds
    under any dependence between them.
    """
    if n < 1:
        raise VoxlabError("n must be >= 1")
    if len(covers) < h + 1:
        raise VoxlabError(f"need covers for layers 0..{h}, got {len(covers)}")
    if not (isinstance(radius, numbers.Real) and radius > 0):
        raise VoxlabError(f"radius must be > 0, got {radius!r}")
    if len(rewards) < h + 1:
        raise VoxlabError(f"need reward tables for layers 0..{h}, got {len(rewards)}")
    # read flat at x * A + a below
    reward_flat = [_reward_table(M, t, rewards[t]).ravel() for t in range(h + 1)]
    # each layer's greedy actions and their table, filled from h down, and
    # the value of layer h's states
    acts, greedy, top = [None] * (h + 1), [None] * (h + 1), None
    for t in range(h, -1, -1):
        key = (M, covers[t], h, n, t, b"".join(a.tobytes() for a in acts[t + 1:h]))
        entry = None if shared is None else shared.get(key)
        if entry is None:
            unif = np.full((M.n_states(t), M.A), 1.0 / M.A)
            unif.setflags(write=False)
            tail = Policy(t, (unif,) + tuple(greedy[t + 1:]))
            chain = sample_trajectories(M, covers[t], n, rng, upto=h, tail=tail,
                                        counter=counter)
            if t < h:
                chain[-1] = chain[-1].sum(axis=2)
            # the chain and, once a layer-t fit reads it, its observed cells
            entry = [chain, None]
            if shared is not None:
                shared[key] = entry
        chain, cells = entry
        if t == h:
            q = reward_flat[h].reshape(M.n_states(h), M.A)
            top = q.max(axis=1)
        else:
            if cells is None:
                cells = entry[1] = ObservedCells(chain[0])
            cnt = chain[0].ravel()
            sums = cnt * reward_flat[t]
            for ell in range(t + 1, h):
                sums += chain[ell - t].reshape(len(cnt), -1) @ reward_flat[ell]
            sums += chain[-1] @ top
            q = fit_value_class(Phi, t, cells, sums, radius).q_table
        acts[t] = q.argmax(axis=1)
        greedy[t] = Policy.from_actions(M, [acts[t]], lo=t).tables[0]
    return Policy(0, greedy)
