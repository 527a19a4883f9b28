"""Domain types for finite layered low-rank MDPs, policies, and policy mixtures.

States live in per-layer index sets; every table is addressed by the position
of a state inside its layer.  Transitions factor through d-dimensional
embeddings: the probability of moving from (x, a) at layer h to x' at layer
h+1 is mu[h][x'] . phi[h][x, a].
"""

from __future__ import annotations

import json

import numpy as np

# arithmetic slack used by the validators
ROW_SUM_TOL = 1e-9
NEG_TOL = 1e-12
WEIGHT_TOL = 1e-12
NORM_TOL = 1e-12
EIG_TOL = 1e-12


class VoxlabError(Exception):
    """Base class for structured library errors."""


class LayerRangeError(VoxlabError):
    """A layer index or layer range was out of bounds or mismatched."""


class BudgetError(VoxlabError):
    """A bounded computation ran past its budget before finishing.

    Raised when the exact max-occupancy recursion (`max_occupancies`) would
    exceed its operation budget, when `fw_optdesign` reaches its iteration
    cap without certifying the design, and when `robust_spanner` exceeds
    its cap on swap rounds.

    The attributes say where it happened; those a raiser does not know stay
    None.  `fw_optdesign` sets `iterations` and the last `certificate`;
    `run_vox` adds the horizon `layer`, the design index `k`, the partial
    run `log` and the `episodes` spent, and `run_spanrl` adds the same but
    `k`.  That is all that is kept: the covers built before the failure are
    lost with the run.
    """

    def __init__(self, message, *, iterations=None, certificate=None,
                 layer=None, k=None, log=None, episodes=None):
        super().__init__(message)
        self.iterations = iterations
        self.certificate = certificate
        self.layer = layer
        self.k = k
        self.log = log
        self.episodes = episodes


def _integer(value, name):
    """``value`` if it is an int; a float, bool or string read from a file
    is refused, where ``int()`` would truncate or convert it silently."""
    if type(value) is not int:
        raise VoxlabError(f"{name} must be an integer, got {value!r}")
    return value


def _numbers(value, name):
    """``value``, a number or nested lists of numbers, as floats; a string or
    bool read from a file is refused, which ``np.asarray`` would convert."""
    if type(value) is list:
        return np.array([_numbers(v, name) for v in value], dtype=float)
    if type(value) not in (int, float):
        raise VoxlabError(f"{name} must hold numbers, got {value!r}")
    return float(value)


def _freeze(arr):
    """Read-only float64 C-contiguous copy of ``arr``, so the caller's array
    is never frozen or aliased; a read-only array of that layout that owns
    its data is shared instead, so frozen tables pass through uncopied."""
    if type(arr) is np.ndarray and arr.dtype == np.float64:
        flags = arr.flags
        if flags.c_contiguous and flags.owndata and not flags.writeable:
            return arr
    arr = np.array(arr, dtype=float, order="C")
    arr.setflags(write=False)
    return arr


class LayeredLowRankMDP:
    """Finite layered MDP with an explicit low-rank transition factorization.

    Parameters
    ----------
    H : horizon, number of layers (>= 2).
    A : number of actions, shared by every layer.
    d : embedding dimension.
    layers : list of H lists of global state ids (disjoint across layers).
    phi : list of H-1 arrays, phi[h] has shape (|X_h|, A, d).
    mu : list of H-1 arrays, mu[h] has shape (|X_{h+1}|, d).
    rho : initial distribution over layer 0, shape (|X_0|,).

    Instances are immutable after construction: every table is held
    read-only, copied unless it already is a frozen table (see `_freeze`).
    """

    def __init__(self, H, A, d, layers, phi, mu, rho):
        self.H = int(H)
        self.A = int(A)
        self.d = int(d)
        if self.H < 2:
            raise VoxlabError(f"horizon must be >= 2, got {self.H}")
        if len(layers) != self.H:
            raise VoxlabError(f"expected {self.H} layers, got {len(layers)}")
        self.layers = tuple(tuple(int(s) for s in ids) for ids in layers)
        if len(phi) != self.H - 1 or len(mu) != self.H - 1:
            raise VoxlabError(
                f"expected {self.H - 1} phi/mu tables, got {len(phi)}/{len(mu)}"
            )
        self.phi = tuple(_freeze(p) for p in phi)
        self.mu = tuple(_freeze(m) for m in mu)
        self.rho = _freeze(rho)
        for h in range(self.H - 1):
            want = (self.n_states(h), self.A, self.d)
            if self.phi[h].shape != want:
                raise VoxlabError(f"phi[{h}] has shape {self.phi[h].shape}, want {want}")
            want = (self.n_states(h + 1), self.d)
            if self.mu[h].shape != want:
                raise VoxlabError(f"mu[{h}] has shape {self.mu[h].shape}, want {want}")
        if self.rho.shape != (self.n_states(0),):
            raise VoxlabError(f"rho has shape {self.rho.shape}, want ({self.n_states(0)},)")
        self._transitions = [None] * (self.H - 1)

    def n_states(self, h):
        return len(self.layers[h])

    def state_counts(self):
        return [self.n_states(h) for h in range(self.H)]

    def transition_matrix(self, h):
        """Dense transition tensor T[x, a, x'] for the step from layer h, cached."""
        if not 0 <= h < self.H - 1:
            raise LayerRangeError(f"no transition out of layer {h} (H={self.H})")
        if self._transitions[h] is None:
            T = np.einsum("xad,yd->xay", self.phi[h], self.mu[h])
            self._transitions[h] = _freeze(T)
        return self._transitions[h]

    def to_json(self):
        payload = {
            "H": self.H,
            "A": self.A,
            "d": self.d,
            "layers": [list(ids) for ids in self.layers],
            "phi": [p.tolist() for p in self.phi],
            "mu": [m.tolist() for m in self.mu],
            "rho": self.rho.tolist(),
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text):
        return LayeredLowRankMDP.from_obj(json.loads(text))

    @staticmethod
    def from_obj(obj):
        H, A, d = (_integer(obj[k], k) for k in ("H", "A", "d"))
        layers = [[_integer(s, "layer id") for s in ids] for ids in obj["layers"]]
        phi, mu = ([_numbers(t, f"{k}[{h}]") for h, t in enumerate(obj[k])]
                   for k in ("phi", "mu"))
        return LayeredLowRankMDP(H, A, d, layers, phi, mu, _numbers(obj["rho"], "rho"))


class Policy:
    """Per-layer action-distribution tables over a contiguous layer range.

    ``tables[i]`` is the (|X_{lo+i}|, A) row-stochastic table for layer lo+i.
    Partial policies are allowed; deterministic policies use one-hot rows.

    The tables are held read-only (see `_freeze`) and must not change after
    construction.

    Policies compare and hash by value (`action_key`), so a dict keyed by
    policies merges equal ones and keeps the first as its key.
    """

    def __init__(self, lo, tables):
        self.lo = int(lo)
        self.tables = tuple(map(_freeze, tables))
        for t in self.tables:
            if t.ndim != 2:
                raise VoxlabError("policy tables must be 2-d (states x actions)")
        self._key = None

    @property
    def hi(self):
        return self.lo + len(self.tables) - 1

    def covers(self, lo, hi):
        return self.lo <= lo and self.hi >= hi and len(self.tables) > 0

    def table(self, h):
        if not self.lo <= h <= self.hi:
            raise LayerRangeError(
                f"policy covers layers [{self.lo}..{self.hi}], asked for {h}"
            )
        return self.tables[h - self.lo]

    def action_key(self):
        """Hashable value of the policy: its first layer and each table's
        shape and bytes, built once."""
        if self._key is None:
            self._key = (self.lo,) + tuple((t.shape, t.tobytes())
                                           for t in self.tables)
        return self._key

    def __eq__(self, other):
        if not isinstance(other, Policy):
            return NotImplemented
        return self.action_key() == other.action_key()

    def __hash__(self):
        return hash(self.action_key())

    @staticmethod
    def uniform(mdp, lo=0, hi=None):
        hi = mdp.H - 1 if hi is None else hi
        tables = [
            np.full((mdp.n_states(h), mdp.A), 1.0 / mdp.A) for h in range(lo, hi + 1)
        ]
        for t in tables:
            t.setflags(write=False)
        return Policy(lo, tables)

    @staticmethod
    def empty(lo=0):
        """Policy with no layers; usable as a roll-in prefix for layer lo."""
        return Policy(lo, [])

    @staticmethod
    def from_actions(mdp, actions, lo=0):
        """Deterministic policy from per-layer action index arrays (or one
        action for every state of a layer)."""
        tables = []
        for h, acts in enumerate(actions, lo):
            n = mdp.n_states(h)
            t = np.zeros((n, mdp.A))
            t[np.arange(n), np.asarray(acts, dtype=int)] = 1.0
            t.setflags(write=False)
            tables.append(t)
        return Policy(lo, tables)


class PolicyDistribution:
    """Finite weighted mixture of policies; weights must sum to 1.

    The policies are held as a tuple and the weights read-only, so a
    mixture does not change after construction: the sampler compiles its
    roll-in law once per mixture object (`simenv._compiled`).
    """

    def __init__(self, policies, weights):
        self.policies = tuple(policies)
        self.weights = np.asarray(weights, dtype=float)
        if len(self.policies) == 0:
            raise VoxlabError("policy distribution needs nonempty support")
        if self.weights.shape != (len(self.policies),):
            raise VoxlabError("one weight per policy required")
        # written so that a NaN weight, which compares false, fails both
        if not np.all(self.weights >= -WEIGHT_TOL):
            raise VoxlabError("mixture weights must be nonnegative")
        total = float(self.weights.sum())
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise VoxlabError(f"mixture weights sum to {total!r}, expected 1")
        self.weights = np.clip(self.weights, 0.0, None)
        self.weights.setflags(write=False)

    def __len__(self):
        return len(self.policies)

    def __iter__(self):
        return zip(self.policies, self.weights)

    @staticmethod
    def point_mass(policy):
        return PolicyDistribution([policy], [1.0])


def as_distribution(P):
    """Coerce a Policy into a point-mass PolicyDistribution."""
    if isinstance(P, PolicyDistribution):
        return P
    if isinstance(P, Policy):
        return PolicyDistribution.point_mass(P)
    raise VoxlabError(f"expected Policy or PolicyDistribution, got {type(P).__name__}")


class FeatureClass:
    """Finite class of candidate feature maps, each shaped like the MDP's phi.

    Each layer's candidate tables are copied once into one read-only
    (K, |X_h|, A, d) stack, returned by ``tables_at(h)``; ``candidates[i][h]``
    is a view of it.  ``true_index`` optionally records which member is the
    environment's own map.  Every entry must be finite: one NaN would make
    every gap of its candidate NaN, so the discriminator search would never
    weigh that candidate.
    """

    def __init__(self, candidates, true_index=None):
        if len(candidates) == 0:
            raise VoxlabError("feature class must be nonempty")
        shape0 = [np.shape(t) for t in candidates[0]]
        for cand in candidates:
            if [np.shape(t) for t in cand] != shape0:
                raise VoxlabError("all candidate maps must share table shapes")
        if true_index is not None and not 0 <= true_index < len(candidates):
            raise VoxlabError(f"true_index {true_index} is not in 0..{len(candidates) - 1}")
        self._stacks = []
        for h in range(len(shape0)):
            stack = np.array([cand[h] for cand in candidates], dtype=float)
            if not np.isfinite(stack).all():
                bad = next(i for i, tab in enumerate(stack) if not np.isfinite(tab).all())
                raise VoxlabError(f"candidate {bad} has a non-finite entry in its "
                                  f"layer-{h} table")
            stack.setflags(write=False)
            self._stacks.append(stack)
        self.candidates = [tuple(stack[i] for stack in self._stacks)
                           for i in range(len(candidates))]
        self.true_index = true_index
        self.d = shape0[0][2]

    def __len__(self):
        return len(self.candidates)

    def __getitem__(self, i):
        return self.candidates[i]

    def tables_at(self, h):
        """Read-only (K, |X_h|, A, d) stack of the candidates' layer-h tables."""
        return self._stacks[h]


class Discriminator:
    """Direction-plus-feature-map test function f(x) = max_a theta . phi(x, a)."""

    def __init__(self, theta, phi_index):
        self.theta = _freeze(theta)
        self.phi_index = int(phi_index)
        nrm = float(np.linalg.norm(self.theta))
        if nrm > 1.0 + NORM_TOL:
            raise VoxlabError(f"discriminator direction has norm {nrm} > 1")

    def values(self, Phi, h):
        """Evaluate f on every state of layer h (vector of per-state maxima)."""
        table = Phi[self.phi_index][h]  # (n_h, A, d)
        return (table @ self.theta).max(axis=1)


def psd_part(W, what):
    """The symmetrized square matrix W with eigenvalues in [-EIG_TOL, 0)
    clipped to zero; raises if one is below -EIG_TOL, naming W ``what``."""
    W = 0.5 * (W + W.T)
    vals, vecs = np.linalg.eigh(W)
    if vals[0] < -EIG_TOL:
        raise VoxlabError(f"{what} is not PSD (min eigenvalue {vals[0]:.3e})")
    if vals[0] < 0.0:
        W = (vecs * np.maximum(vals, 0.0)) @ vecs.T
        W = 0.5 * (W + W.T)
    return W


def compose_policies(prefix, suffix):
    """Concatenate two policies whose layer ranges abut.

    The result plays ``prefix`` on its layers and ``suffix`` from there on.
    """
    if len(prefix.tables) == 0:
        return suffix
    if len(suffix.tables) == 0:
        return prefix
    if prefix.hi + 1 != suffix.lo:
        raise LayerRangeError(
            f"cannot compose: prefix covers [{prefix.lo}..{prefix.hi}], "
            f"suffix covers [{suffix.lo}..{suffix.hi}]"
        )
    return Policy(prefix.lo, prefix.tables + suffix.tables)


def validate_mdp(M):
    """Check every structural invariant and report violations as strings.

    Returns an empty list iff the factorization is valid: distinct state
    ids, feature norms at most 1, transition rows that are nonnegative
    densities summing to 1, per-coordinate l1 mass of each mu table at most
    1, and rho a probability vector.  The l1 condition implies the aggregate
    normalization || sum_x g(x) mu(x) || <= sqrt(d) for every g: X -> [0, 1],
    since |sum_x g(x) mu_i(x)| <= sum_x |mu_i(x)| coordinate by coordinate;
    only inside its 1e-9 slack, column masses in (1, 1 + 1e-9], can the
    aggregate norm pass sqrt(d), by a factor of at most 1 + 1e-9.
    """
    def where(mask):  # the true entries' indices, built only if there is one
        return zip(*np.nonzero(mask)) if mask.any() else ()
    report, layer_of = [], {}
    for h, s in [(h, s) for h, ids in enumerate(M.layers) for s in ids]:
        if s in layer_of:
            report.append(f"state id {s} is in layer {layer_of[s]} and layer {h}")
        layer_of[s] = h
    for h in range(M.H - 1):
        norms = np.linalg.norm(M.phi[h], axis=2)
        for x, a in where(norms > 1.0 + NORM_TOL):
            report.append(
                f"phi norm bound violated at (h={h}, x={x}, a={a}): {norms[x, a]:.12g} > 1"
            )
        T = M.transition_matrix(h)
        for x, a, y in where(T < -NEG_TOL):
            report.append(
                f"negative transition density at (h={h}, x={x}, a={a}, x'={y}): {T[x, a, y]:.12g}"
            )
        sums = T.sum(axis=2)
        for x, a in where(np.abs(sums - 1.0) > ROW_SUM_TOL):
            report.append(
                f"transition row sum off at (h={h}, x={x}, a={a}): {sums[x, a]:.12g}"
            )
        l1 = np.abs(M.mu[h]).sum(axis=0)
        for (i,) in where(l1 > 1.0 + ROW_SUM_TOL):
            report.append(
                f"mu coordinate l1 mass exceeds 1 at (h={h}, i={i}): {l1[i]:.12g}"
            )
    if np.any(M.rho < -NEG_TOL):
        report.append("rho has a negative entry")
    if abs(float(M.rho.sum()) - 1.0) > ROW_SUM_TOL:
        report.append(f"rho sums to {float(M.rho.sum()):.12g}, expected 1")
    return report
