"""Synthetic environment generation, exact occupancy/moment computation,
reachability constants, and trajectory sampling.

Everything in here is either a generator or an exact (brute-force) oracle;
the Monte-Carlo side of the library lives in ``estimators``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BudgetError,
    FeatureClass,
    LayeredLowRankMDP,
    LayerRangeError,
    Policy,
    VoxlabError,
    as_distribution,
)

DEFAULT_DP_BUDGET = 50_000_000


@dataclass
class EnvSpec:
    """Recipe for a synthetic layered low-rank MDP.

    ``boost`` in [0, 1) mixes every latent-assignment row with the uniform
    point on the simplex, which lifts the reachability constant of the
    generated environment.  ``rotate`` re-expresses the factorization in a
    randomly sign-flipped (and, when feasible, rotated) coordinate system so
    that features and densities carry negative entries.
    """

    H: int
    A: int
    d_latent: int
    state_counts: list
    seed: int = 0
    boost: float = 0.0
    rotate: bool = False

    def __post_init__(self):
        if self.H < 2:
            raise VoxlabError("EnvSpec requires H >= 2")
        if self.A < 1 or self.d_latent < 1:
            raise VoxlabError("EnvSpec requires A >= 1 and d_latent >= 1")
        if len(self.state_counts) != self.H:
            raise VoxlabError("EnvSpec needs one state count per layer")
        if any(c < 1 for c in self.state_counts):
            raise VoxlabError("state counts must all be >= 1")
        if not 0.0 <= self.boost < 1.0:
            raise VoxlabError("boost must lie in [0, 1)")


class EpisodeCounter:
    """Running count of sampled episodes, threaded through the samplers."""

    def __init__(self):
        self.count = 0

    def add(self, n):
        self.count += int(n)


def _cumulative(table):
    """Row-wise cumulative sums of a clipped policy or transition table.

    A transition tensor (|X_t|, A, |X_{t+1}|) is read as a table with one row
    per flat (state, action) index x * A + a.  The result is stored transposed
    as a contiguous (k, rows) array, so gathering a batch of rows is one
    ``take`` along axis 1.
    """
    table = np.clip(table.reshape(-1, table.shape[-1]), 0.0, None)
    return np.ascontiguousarray(np.cumsum(table, axis=1).T)


def _mdp_cumulative(M, t):
    """The sampler's ``_cumulative`` table of draw t on M: rho as one row for
    t = 0, the transitions out of layer t-1 after.  The MDP is immutable, so
    each table is built once per MDP, read-only, and kept on it."""
    cum = M._cumulatives[t]
    if cum is None:
        cum = _cumulative(M.rho[None] if t == 0 else M.transition_matrix(t - 1))
        cum.setflags(write=False)
        M._cumulatives[t] = cum
    return cum


def _policy_cumulative(table):
    """A policy table's sampler form: its ``_cumulative`` and, when every row
    is one-hot, each row's action, both read-only.  A table whose rows are
    all equal comes back as its one row, a (k, 1) table that
    ``_categorical_rows`` draws from without a gather."""
    cum = _cumulative(table)
    cum.setflags(write=False)
    if (cum == cum[:, :1]).all():
        return cum[:, :1], None
    if ((cum == 0.0) | (cum == 1.0)).all() and (cum[-1] == 1.0).all():
        hot = np.add.reduce(cum[:-1] == 0.0, axis=0, dtype=np.int64)
        hot.setflags(write=False)
        return cum, hot
    return cum, None


def _policy_form(pi, t):
    """The sampler form of pi's layer-t table, built by ``_policy_cumulative``
    on first use and kept on pi, whose tables never change."""
    i = t - pi.lo
    form = pi._forms[i]
    if form is None:
        form = pi._forms[i] = _policy_cumulative(pi.tables[i])
    return form


def _uniform_step(M, t):
    """The uniform policy on layer t alone, with its sampler form; built once
    per MDP and kept on it."""
    step = M._uniforms[t]
    if step is None:
        step = M._uniforms[t] = Policy.uniform(M, t, t)
        _policy_form(step, t)
    return step


def _greedy_step(M, t, acts):
    """The deterministic policy on layer t alone that plays ``acts[x]`` in
    state x, with its one-hot form set from ``acts`` rather than built from
    the table.  A one-hot draw never reads the cumulative table, so the form
    holds None there; a table with equal rows draws the same actions from
    the same uniforms through either form."""
    acts = np.array(acts, dtype=np.int64)
    acts.setflags(write=False)
    table = np.zeros((M.n_states(t), M.A))
    table[np.arange(M.n_states(t)), acts] = 1.0
    table.setflags(write=False)
    step = Policy(t, [table])
    step._forms[0] = None, acts
    return step


def _categorical_rows(cum, rows, rng, out, hot=None):
    """One draw per entry of ``rows`` from the rows of a ``_cumulative`` table,
    written into the int64 row ``out``.

    The rows need not be normalized.  ``cumsum`` accumulates each row in
    sequence, so a gathered row of the cumulative table equals the cumulative
    sum of the gathered row bit for bit, and the draw is the one per-row
    inverse-CDF sampling gives for the same generator call.  Counting the
    first k-1 columns at or below u caps the index at k-1.  A (k, 1) table
    is every row's table, so it is read without a gather.  With ``hot``, the
    one-hot actions of ``_policy_cumulative``, the uniform draw is taken and
    dropped: u = r * 1.0 < 1 lies at or above exactly the leading zeros of
    a 0/1 cumulative row, which ``hot`` counts.
    """
    u = rng.random(len(out))
    if hot is not None:
        hot.take(rows, out=out)
        return
    one = cum.shape[1] == 1
    u *= cum[-1, 0] if one else cum[-1].take(rows)
    out.fill(0)
    for col in cum[:-1]:
        out += (col[0] if one else col.take(rows)) <= u


def _cayley(skew, t):
    d = skew.shape[0]
    a = t * skew
    return np.linalg.solve(np.eye(d) + a, np.eye(d) - a)


def generate_low_rank_mdp(spec):
    """Build a valid layered low-rank MDP from latent-variable ingredients.

    Each step draws a latent assignment psi(.|x, a) on the d-simplex (the
    feature vector) and a per-latent emission q(.|z) over next states (the
    density columns), so transition rows are probability vectors by
    construction and every structural invariant holds exactly.  All
    randomness comes from ``spec.seed``.
    """
    rng = np.random.default_rng(spec.seed)
    H, A, d = spec.H, spec.A, spec.d_latent
    counts = list(spec.state_counts)
    layers, next_id = [], 0
    for c in counts:
        layers.append(list(range(next_id, next_id + c)))
        next_id += c

    phi, mu = [], []
    for h in range(H - 1):
        psi = rng.dirichlet(np.ones(d), size=(counts[h], A))
        if spec.boost > 0.0:
            psi = (1.0 - spec.boost) * psi + spec.boost / d
        q = rng.dirichlet(np.ones(counts[h + 1]), size=d).T  # (n_next, d)
        q = q / q.sum(axis=0, keepdims=True)
        phi.append(psi)
        mu.append(q)

    if spec.rotate:
        for h in range(H - 1):
            signs = rng.choice([-1.0, 1.0], size=d)
            if np.all(signs > 0):
                signs[int(rng.integers(d))] = -1.0
            D = np.diag(signs)
            raw = rng.standard_normal((d, d))
            skew = raw - raw.T
            chosen = None
            t = 1.0
            for _ in range(40):
                R = _cayley(skew, t) @ D
                ph = phi[h] @ R.T
                mh = mu[h] @ R.T
                # rescale so feature norms stay inside the unit ball exactly
                s = max(1.0, float(np.linalg.norm(ph, axis=2).max()))
                ph, mh = ph / s, mh * s
                if np.abs(mh).sum(axis=0).max() <= 1.0 + 1e-12:
                    chosen = (ph, mh)
                    break
                t *= 0.5
            if chosen is None:
                # sign flips alone always preserve the mass bounds
                chosen = (phi[h] @ D.T, mu[h] @ D.T)
            phi[h], mu[h] = chosen

    rho = rng.dirichlet(np.ones(counts[0]))
    rho = rho / rho.sum()
    return LayeredLowRankMDP(H, A, d, layers, phi, mu, rho)


def combination_lock(H, A, obs_per_latent, seed):
    """Block-MDP combination lock with two latent states per layer (d = 2).

    Latent 0 ("open") moves to latent 0 only under that layer's secret
    action; every other action, and every action from latent 1, leads to
    latent 1, which absorbs.  Each latent emits ``obs_per_latent``
    observations with Dirichlet weights, in a per-layer shuffled order.
    phi is the one-hot next-latent indicator and mu holds the emission
    columns, so the uniform policy reaches the open latent at layer h with
    probability A^-h.  All randomness comes from ``seed``.
    """
    if H < 2 or A < 1 or obs_per_latent < 1:
        raise VoxlabError("combination_lock requires H >= 2, A >= 1 and "
                          "obs_per_latent >= 1")
    rng = np.random.default_rng(seed)
    n = 2 * obs_per_latent
    latent = [rng.permutation(n) // obs_per_latent for _ in range(H)]
    secret = rng.integers(0, A, size=H - 1)
    phi, mu = [], []
    for h in range(H - 1):
        nxt = np.ones((n, A), dtype=int)
        nxt[latent[h] == 0, secret[h]] = 0
        phi.append(np.eye(2)[nxt])
        q = np.zeros((n, 2))
        for z in range(2):
            q[latent[h + 1] == z, z] = rng.dirichlet(np.ones(obs_per_latent))
        mu.append(q)
    rho = np.zeros(n)
    rho[latent[0] == 0] = rng.dirichlet(np.ones(obs_per_latent))
    layers = [list(range(h * n, (h + 1) * n)) for h in range(H)]
    return LayeredLowRankMDP(H, A, 2, layers, phi, mu, rho)


def _check_layer(M, h):
    if not 0 <= h < M.H:
        raise LayerRangeError(f"layer {h} out of range for H={M.H}")


def _require_cover(pi, lo, hi):
    if not pi.covers(lo, hi):
        got = f"[{pi.lo}..{pi.hi}]" if pi.tables else "an empty policy"
        raise LayerRangeError(
            f"policy covering layers [{lo}..{hi}] required, got {got}"
        )


def exact_occupancy(M, pi, h):
    """State-occupancy vector at layer h under pi, by forward recursion."""
    _check_layer(M, h)
    occ = M.rho.copy()
    if h > 0:
        _require_cover(pi, 0, h - 1)
    for t in range(h):
        sa = occ[:, None] * pi.table(t)
        occ = np.einsum("xa,xay->y", sa, M.transition_matrix(t))
    return occ


def exact_occupancy_sa(M, pi, h):
    """State-action occupancy matrix at layer h (requires pi to cover h)."""
    occ = exact_occupancy(M, pi, h)
    return occ[:, None] * pi.table(h)


def exact_feature_expectation(M, pi, feat, h):
    """E^pi[f(x_h, a_h)] for layer h's (|X_h|, A, d) feature table f."""
    sa = exact_occupancy_sa(M, pi, h)
    return np.einsum("xa,xad->d", sa, feat)


def exact_second_moment(M, pi, feat, h):
    """E^pi[f f^T (x_h, a_h)] for layer h's (|X_h|, A, d) feature table f;
    symmetric PSD for any table."""
    sa = exact_occupancy_sa(M, pi, h)
    W = np.einsum("xa,xad,xae->de", sa, feat, feat)
    return (W + W.T) / 2.0


def mixture_occupancy(M, P, h):
    """Occupancy of a policy mixture: the weight-averaged member occupancies."""
    P = as_distribution(P)
    parts = [exact_occupancy(M, pi, h) for pi in P.policies]
    return sum(w * part for part, w in zip(parts, P.weights))


def exact_q_tables(M, pi, reward_tables):
    """Exact per-layer Q tables for pi under explicit reward tables.

    ``reward_tables[t]`` has shape (|X_t|, A); the list length fixes the last
    rewarded layer.  Returns a list of Q tables of the same shapes.
    """
    L = len(reward_tables) - 1
    if L >= 1:
        _require_cover(pi, 1, L)
    q = [None] * (L + 1)
    v_next = None
    for t in range(L, -1, -1):
        qt = np.array(reward_tables[t], dtype=float)
        if t < L:
            qt = qt + np.einsum("xay,y->xa", M.transition_matrix(t), v_next)
        q[t] = qt
        if t > 0:
            v_next = np.einsum("xa,xa->x", pi.table(t), qt)
    return q


def exact_policy_value(M, pi, reward_tables):
    """E^pi of the summed rewards, computed from exact occupancies."""
    total = 0.0
    for t, r in enumerate(reward_tables):
        if np.any(np.asarray(r) != 0.0):
            sa = exact_occupancy_sa(M, pi, t)
            total += float(np.einsum("xa,xa->", sa, np.asarray(r, dtype=float)))
    return total


def _output_pair(out, shape):
    """The caller's (states, actions) pair ``out``, checked to be writeable
    int64 arrays of the given shape, or a new pair when ``out`` is None."""
    if out is None:
        return np.empty(shape, dtype=np.int64), np.empty(shape, dtype=np.int64)
    if not (isinstance(out, tuple) and len(out) == 2 and all(
            isinstance(o, np.ndarray) and o.shape == shape
            and o.dtype == np.int64 and o.flags.writeable for o in out)):
        raise VoxlabError(f"out must be two writeable int64 arrays of shape {shape}")
    return out


def sample_trajectories(M, pi, n, rng, upto=None, counter=None, out=None):
    """Vectorized batch of ``n`` episodes under ``pi`` through layer ``upto``.

    Each policy table is clipped, cumulated and classified once per policy
    (its form, `_policy_form`), and rho and each transition tensor once per
    MDP.  Every draw takes one uniform per episode and writes one row of the
    output in place.  It then costs one gather and one compare per column of
    its table; one compare per column and no gather when the rows are all
    equal (rho, a uniform policy); and one gather in all for a one-hot
    policy table.  The draws are bit-identical to per-row inverse-CDF
    sampling from the clipped rows.  Returns (states, actions) arrays of
    shape (upto+1, n): ``out`` if given, else a new pair.
    """
    upto = M.H - 1 if upto is None else upto
    _check_layer(M, upto)
    if n < 0:
        raise VoxlabError(f"n must be >= 0, got {n}")
    _require_cover(pi, 0, upto)
    for t in range(upto + 1):
        want, got = (M.n_states(t), M.A), pi.table(t).shape
        if got != want:
            raise VoxlabError(
                f"policy table at layer {t} has shape {got}, expected {want}")
    states, actions = _output_pair(out, (upto + 1, n))
    if counter is not None:
        counter.add(n)
    cell = np.empty(n, dtype=np.int64)
    _categorical_rows(_mdp_cumulative(M, 0), None, rng, states[0])
    for t in range(upto + 1):
        cum, hot = _policy_form(pi, t)
        _categorical_rows(cum, states[t], rng, actions[t], hot)
        if t < upto:
            np.multiply(states[t], M.A, out=cell)
            cell += actions[t]
            _categorical_rows(_mdp_cumulative(M, t + 1), cell, rng, states[t + 1])
    return states, actions


def rollin(M, P, n, rng, upto, tail=None, counter=None, out=None):
    """``n`` episodes through layer ``upto``, each rolled in with a policy drawn from P.

    Every episode follows its drawn policy on layers 0..upto-k and the fixed
    ``tail`` on the k remaining layers: a Policy on layers upto-k+1..upto,
    with no layers (k = 0) if not given.  The policy is redrawn
    every episode; this is implemented by grouping episode counts with one
    multinomial draw, which has the same law and lets the sampler run
    vectorized per component, each into its own columns of one output pair.
    A component is sampled as one policy sharing its and the tail's tables
    and sampler forms, which are built on the component and the tail, so
    once however often they are rolled in.  Returns (states, actions) arrays
    of shape (upto+1, n), ``out`` if given, with the episodes grouped by
    component in support order.
    """
    if n < 1:
        raise VoxlabError("n must be >= 1")
    _check_layer(M, upto)
    P = as_distribution(P)
    states, actions = _output_pair(out, (upto + 1, n))
    tail = Policy.empty(upto + 1) if tail is None else tail
    head = upto + 1 - len(tail.tables)
    if tail.tables and tail.lo != head:
        raise LayerRangeError(
            f"tail covering layers [{head}..{upto}] required, got "
            f"[{tail.lo}..{tail.hi}]")
    tail_forms = [_policy_form(tail, t) for t in range(head, upto + 1)]
    per_comp = rng.multinomial(n, P.weights)
    lo = 0
    for comp, cnt in zip(P.policies, per_comp.tolist()):
        if cnt:
            cols = slice(lo, lo + cnt)
            pi = Policy(0, [comp.table(t) for t in range(head)] + list(tail.tables))
            pi._forms = [_policy_form(comp, t) for t in range(head)] + tail_forms
            sample_trajectories(M, pi, cnt, rng, upto=upto, counter=counter,
                                out=(states[:, cols], actions[:, cols]))
            lo += cnt
    return states, actions


def _dp_cost(M, h):
    cost = 0
    for t in range(h):
        cost += M.n_states(t) * M.A * M.n_states(t + 1) * M.n_states(h)
    return cost


def max_occupancies(M, h, budget=DEFAULT_DP_BUDGET):
    """max over deterministic policies of d^pi(x), for every x in layer h.

    Backward dynamic programming on the reach probability of each target
    state; the per-state maximum over all randomized policies is attained by
    a deterministic one because occupancy is affine in each action row.
    """
    _check_layer(M, h)
    if _dp_cost(M, h) > budget:
        raise BudgetError(
            f"max-occupancy recursion at layer {h} needs {_dp_cost(M, h)} ops, "
            f"budget is {budget}"
        )
    n_h = M.n_states(h)
    reach = np.eye(n_h)
    for t in range(h - 1, -1, -1):
        T = M.transition_matrix(t)
        reach = np.einsum("xay,yk->xak", T, reach).max(axis=1)
    return M.rho @ reach


def _greedy_backward(M, h, g):
    """Greedy actions at layers 0..h and layer-0 values for reward g at h."""
    g = np.asarray(g, dtype=float)
    acts, v = [g.argmax(axis=1)], g.max(axis=1)
    for t in range(h - 1, -1, -1):
        q = np.einsum("xay,y->xa", M.transition_matrix(t), v)
        acts.insert(0, q.argmax(axis=1))
        v = q.max(axis=1)
    return acts, v


def max_value(M, h, g):
    """sup over policies of E^pi[g(x_h, a_h)] for a (|X_h|, A) reward table."""
    return float(M.rho @ _greedy_backward(M, h, g)[1])


def argmax_policy(M, h, g):
    """A deterministic policy attaining max_value(M, h, g), greedy everywhere."""
    return Policy.from_actions(M, _greedy_backward(M, h, g)[0], lo=0)


def make_feature_class(M, n_decoys, rng, true_index=0):
    """Finite feature class: the true map plus cell-permuted decoys.

    Each decoy reassigns the true feature vectors across (state, action)
    cells by a per-layer random permutation (never the identity).  Any
    invertible map of the d coordinates would leave conditional means
    linearly realizable, so the scramble acts on cells instead; norms
    stay inside the unit ball while the dynamics stop being linear in
    the decoy.
    """
    if not 0 <= true_index <= n_decoys:
        raise VoxlabError(f"true_index {true_index} is outside 0..{n_decoys}")
    decoys = []
    seen = set()
    attempts = 0
    while len(decoys) < n_decoys:
        attempts += 1
        if attempts > 200 * (n_decoys + 1):
            raise VoxlabError(
                f"could not find {n_decoys} distinct cell permutations"
            )
        perms = []
        for tab in M.phi:
            cells = tab.shape[0] * tab.shape[1]
            perms.append(tuple(rng.permutation(cells).tolist()))
        key = tuple(perms)
        if key in seen or all(p == tuple(range(len(p))) for p in perms):
            continue
        seen.add(key)
        decoys.append([
            tab.reshape(-1, M.d)[list(p)].reshape(tab.shape)
            for tab, p in zip(M.phi, perms)
        ])
    candidates = decoys[:]
    candidates.insert(true_index, [tab.copy() for tab in M.phi])
    return FeatureClass(candidates, true_index=true_index)


def reachability_eta(M, h):
    """min over layer-h states of (best-case occupancy) / (density norm).

    Only states with a nonzero density embedding qualify; the layer must be
    at least 1 since layer 0 carries no density table.
    """
    if not 1 <= h < M.H:
        raise LayerRangeError(f"reachability is defined for layers 1..{M.H - 1}")
    occ = max_occupancies(M, h)
    norms = np.linalg.norm(M.mu[h - 1], axis=1)
    mask = norms > 0
    if not np.any(mask):
        raise VoxlabError(f"layer {h} has no state with nonzero density embedding")
    return float((occ[mask] / norms[mask]).min())
