"""Policy Search by Dynamic Programming.

Backward layer-by-layer regression of roll-out returns followed by greedy
policy extraction.  Used as the approximate linear-optimization oracle by
both the design loop (quadratic rewards on a learned feature map) and the
spanner loop (linear rewards), and for downstream reward optimization.

All layer indices are 0-based positions within the horizon; `psdp(env, h,
...)` regresses layers h, h-1, ..., 0 and returns a policy over [0..h].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from voxlab.core import Policy, VoxlabError
from voxlab.simenv import rollin

NORM_EPS = 1e-10


class RewardSpec:
    """Per-layer reward function, one of three kinds.

    quadratic: r(x, a) = phi(x, a)^T mat phi(x, a) at a single layer, zero
      elsewhere; range [0, ||mat||_op] by Cauchy-Schwarz when ||phi|| <= 1.
    linear: r(x, a) = phi(x, a)^T theta at a single layer; range
      [-||theta||, ||theta||].
    table: explicit (n_t, A) reward tables for layers 0..top.

    Entries of materialized tables are clipped to the declared range so the
    regression targets stay inside the bounds the guarantees assume.
    """

    def __init__(self, kind, *, mat=None, theta=None, feat_table=None, layer=None,
                 tables=None):
        self.kind = kind
        self.mat = mat
        self.theta = theta
        self.feat_table = feat_table
        self.layer = layer
        self._tables = tables

    @classmethod
    def quadratic(cls, mat, feat_table, layer):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise VoxlabError(f"quadratic reward needs a square matrix, got {mat.shape}")
        return cls("quadratic", mat=mat, feat_table=np.asarray(feat_table, dtype=float),
                   layer=int(layer))

    @classmethod
    def linear(cls, theta, feat_table, layer):
        return cls("linear", theta=np.asarray(theta, dtype=float),
                   feat_table=np.asarray(feat_table, dtype=float), layer=int(layer))

    @classmethod
    def table(cls, tables):
        tabs = [np.asarray(t, dtype=float) for t in tables]
        if not tabs:
            raise VoxlabError("table reward needs at least one layer")
        return cls("table", tables=tabs)

    @property
    def top_layer(self):
        if self.kind == "table":
            return len(self._tables) - 1
        return self.layer

    def bound(self):
        """Declared range bound on |r|."""
        if self.kind == "quadratic":
            return float(np.linalg.norm(self.mat, 2))
        if self.kind == "linear":
            return float(np.linalg.norm(self.theta))
        return float(max(np.abs(t).max() for t in self._tables))

    def layer_table(self, M, t):
        """Materialize the (n_t, A) reward table for layer t, clipped to range."""
        if self.kind == "table":
            tab = self._tables[t]
            if tab.shape != (M.n_states(t), M.A):
                raise VoxlabError(
                    f"reward table at layer {t} has shape {tab.shape}, expected "
                    f"({M.n_states(t)}, {M.A})"
                )
            return tab
        if t != self.layer:
            return np.zeros((M.n_states(t), M.A))
        if self.kind == "quadratic":
            vals = np.einsum("xad,de,xae->xa", self.feat_table, self.mat,
                             self.feat_table)
            return np.clip(vals, 0.0, self.bound())
        vals = self.feat_table @ self.theta
        b = self.bound()
        return np.clip(vals, -b, b)

    def all_tables(self, M):
        return [self.layer_table(M, t) for t in range(self.top_layer + 1)]

    def evaluate(self, x, a, t):
        if self.kind == "table":
            return float(self._tables[t][x, a])
        if t != self.layer:
            return 0.0
        f = self.feat_table[x, a]
        if self.kind == "quadratic":
            return float(np.clip(f @ self.mat @ f, 0.0, self.bound()))
        b = self.bound()
        return float(np.clip(f @ self.theta, -b, b))


class ValueClass:
    """Function class regressed against at one layer.

    ball: {(x, a) -> phi(x, a)^T w : phi a candidate of Phi, ||w|| <= radius}.
    singleton: one fixed table (the known top-layer reward), no fitting.
    """

    def __init__(self, kind, *, Phi=None, radius=None, table=None):
        self.kind = kind
        self.Phi = Phi
        self.radius = radius
        self.table = table
        if kind == "ball" and (radius is None or radius <= 0):
            raise VoxlabError("ball value class needs radius > 0")

    @classmethod
    def ball(cls, Phi, radius):
        return cls("ball", Phi=Phi, radius=float(radius))

    @classmethod
    def singleton(cls, table):
        return cls("singleton", table=np.asarray(table, dtype=float))


@dataclass
class RegressionData:
    """Weighted least-squares instance over unique (x, a) pairs at one layer.

    `offset` carries the within-cell variance term dropped by aggregating raw
    samples into cell means, so reported losses equal the raw empirical loss.
    """

    layer: int
    xs: np.ndarray
    acts: np.ndarray
    ys: np.ndarray
    weights: np.ndarray
    offset: float

    @classmethod
    def from_samples(cls, layer, xs, acts, ys, n_states, A):
        xs = np.asarray(xs, dtype=np.int64)
        acts = np.asarray(acts, dtype=np.int64)
        ys = np.asarray(ys, dtype=float)
        if xs.size == 0:
            raise VoxlabError("empty regression dataset")
        cell = xs * A + acts
        cnt = np.bincount(cell, minlength=n_states * A).astype(float)
        sy = np.bincount(cell, weights=ys, minlength=n_states * A)
        sy2 = np.bincount(cell, weights=ys * ys, minlength=n_states * A)
        keep = cnt > 0
        mean = sy[keep] / cnt[keep]
        offset = float(sy2[keep].sum() - (cnt[keep] * mean * mean).sum())
        idx = np.nonzero(keep)[0]
        return cls(layer=layer, xs=idx // A, acts=idx % A, ys=mean,
                   weights=cnt[keep], offset=max(offset, 0.0))


@dataclass
class FittedValue:
    """Result of fit_value_class: chosen feature index, weights, Q table, loss."""

    phi_index: int | None
    w: np.ndarray | None
    q_table: np.ndarray
    loss: float


class BallLeastSquares:
    """Factor step of ball-constrained least squares: sqrt(weights), the thin
    SVD of the weighted design Z and its rank mask, kept for many solves."""

    def __init__(self, Z, weights=None):
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2:
            raise VoxlabError(f"shape mismatch: Z {Z.shape} is not 2-d")
        self.root = None
        if weights is not None:
            self.root = np.sqrt(np.asarray(weights, dtype=float))
            Z = Z * self.root[:, None]
        self.U, self.s, self.Vt = np.linalg.svd(Z, full_matrices=False)
        s = self.s
        self.pos = s > s[0] * 1e-13 if s.size and s[0] > 0 else s > 0

    def solve(self, y, radius):
        """Minimum-norm unconstrained solution when it fits the ball of the
        given radius, otherwise bisects the ridge multiplier until the
        constraint is active to within 1e-10."""
        if radius <= 0:
            raise VoxlabError("radius must be > 0")
        y = np.asarray(y, dtype=float)
        if self.U.shape[0] != y.shape[0]:
            raise VoxlabError(
                f"shape mismatch: Z has {self.U.shape[0]} rows, y {y.shape}")
        if self.root is not None:
            y = y * self.root
        s, Vt, pos = self.s, self.Vt, self.pos
        b = self.U.T @ y
        coef = np.zeros_like(s)
        coef[pos] = b[pos] / s[pos]
        w0 = Vt.T @ coef
        if np.linalg.norm(w0) <= radius + NORM_EPS:
            return w0

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


def ball_constrained_least_squares(Z, y, radius, weights=None):
    """Exact minimizer of the (weighted) squared loss over the ball ||w|| <= radius.

    Factor once, solve many: this is `BallLeastSquares(Z, weights).solve(y,
    radius)`, and a caller that fits one design against many targets keeps
    the `BallLeastSquares` and calls `solve` per target.  The answers are
    bit-identical, since the same matrix gives the same SVD.
    """
    return BallLeastSquares(Z, weights).solve(y, radius)


def fit_value_class(data: RegressionData, cls: ValueClass):
    """Least-squares fit of a ValueClass on aggregated data.

    Ball classes enumerate the feature candidates, solve the ball-constrained
    regression exactly per candidate, and keep the lowest-loss pair (lowest
    candidate index on ties).  Singleton classes return the fixed table.
    """
    if cls.kind == "singleton":
        pred = cls.table[data.xs, data.acts]
        loss = float((data.weights * (pred - data.ys) ** 2).sum()) + data.offset
        return FittedValue(phi_index=None, w=None, q_table=cls.table, loss=loss)
    tables = cls.Phi.tables_at(data.layer)
    best = None
    for i, tab in enumerate(tables):
        Z = tab[data.xs, data.acts]
        w = ball_constrained_least_squares(Z, data.ys, cls.radius,
                                           weights=data.weights)
        resid = Z @ w - data.ys
        loss = float((data.weights * resid * resid).sum()) + data.offset
        if best is None or loss < best.loss:
            best = FittedValue(phi_index=i, w=w, q_table=tab @ w, loss=loss)
    return best


def psdp(M, h, rewards: RewardSpec, classes, covers, n, rng, counter=None):
    """Backward regression of roll-out returns; returns a greedy policy on [0..h].

    For t = h down to 0: draw n episodes with roll-in policy sampled from
    covers[t], a uniform action at layer t, and the already-built greedy
    suffix afterwards; regress the observed return-to-go at (x_t, a_t) onto
    classes[t]; act greedily w.r.t. the fit at layer t.
    """
    if n < 1:
        raise VoxlabError("n must be >= 1")
    if len(classes) < h + 1 or len(covers) < h + 1:
        raise VoxlabError(
            f"need value classes and covers for layers 0..{h}, got "
            f"{len(classes)} and {len(covers)}"
        )
    reward_tabs = [rewards.layer_table(M, t) for t in range(h + 1)]
    greedy = [None] * (h + 1)
    uniform_rows = [np.full((M.n_states(t), M.A), 1.0 / M.A) for t in range(h + 1)]
    for t in range(h, -1, -1):
        S, A = rollin(M, covers[t], n, rng, upto=h,
                      tail=[uniform_rows[t]] + greedy[t + 1:h + 1], counter=counter)
        ret = np.zeros(n)
        for ell in range(t, h + 1):
            ret += reward_tabs[ell][S[ell], A[ell]]
        data = RegressionData.from_samples(t, S[t], A[t], ret, M.n_states(t), M.A)
        fit = fit_value_class(data, classes[t])
        acts_t = np.argmax(fit.q_table, axis=1)
        table = np.zeros((M.n_states(t), M.A))
        table[np.arange(M.n_states(t)), acts_t] = 1.0
        greedy[t] = table
    return Policy(0, greedy)
