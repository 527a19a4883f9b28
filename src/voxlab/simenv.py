"""Synthetic environment generation, exact occupancy/moment computation,
reachability constants, and trajectory sampling.

Everything in here is either a generator or an exact (brute-force) oracle;
the Monte-Carlo side of the library lives in ``estimators``.
"""

from __future__ import annotations

import weakref
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
    generated environment.  ``rotate`` applies a random sign flip per
    coordinate, the same for phi and mu, so every transition is unchanged
    while features and densities carry negative entries.
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


def _rows(table):
    """The sampler's law of each row of a policy table, or of a transition
    tensor (|X_t|, A, |X_{t+1}|) read as one row per flat (state, action)
    index x * A + a: the row clipped at 0 and normalized.  A row with no
    positive entry puts its mass on its last entry, which keeps the law
    equal to that of the frozen per-episode `tests/conftest.reference_rollin`
    that the law tests compare against."""
    p = np.maximum(table.reshape(-1, table.shape[-1]), 0.0)
    total = p.sum(axis=1, keepdims=True)
    empty = total[:, 0] == 0.0
    if empty.any():
        p[empty, -1] = total[empty] = 1.0
    return p / total


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
            phi[h], mu[h] = phi[h] * signs, mu[h] * signs

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


def _reward_table(M, t, r):
    """r as the float (|X_t|, A) reward table of layer t; raises unless t is
    a layer of M and r has that shape, since the evaluators and `psdp` read
    it cell by cell and NumPy would broadcast a misshaped table."""
    _check_layer(M, t)
    tab = np.asarray(r, dtype=float)
    if tab.shape != (M.n_states(t), M.A):
        raise VoxlabError(f"reward table at layer {t} has shape {tab.shape}, "
                          f"expected ({M.n_states(t)}, {M.A})")
    return tab


def exact_q_tables(M, pi, reward_tables):
    """Exact per-layer Q tables for pi under explicit reward tables.

    ``reward_tables[t]`` has shape (|X_t|, A); the list length fixes the last
    rewarded layer.  Returns a list of Q tables of the same shapes.  Every
    table's layer and shape are checked before the pass starts.
    """
    L = len(reward_tables) - 1
    if L >= 1:
        _require_cover(pi, 1, L)
    tables = [_reward_table(M, t, r) for t, r in enumerate(reward_tables)]
    q = [None] * (L + 1)
    v_next = None
    for t in range(L, -1, -1):
        qt = np.array(tables[t])
        if t < L:
            qt = qt + np.einsum("xay,y->xa", M.transition_matrix(t), v_next)
        q[t] = qt
        if t > 0:
            v_next = np.einsum("xa,xa->x", pi.table(t), qt)
    return q


def exact_policy_value(M, pi, reward_tables):
    """E^pi of the summed rewards, from one forward pass of the exact
    occupancies that stops at each rewarded layer.  Every rewarded layer's
    range and table shape are checked before the pass starts and each
    layer's cover before the pass reaches it; zero-reward layers are only
    passed through, and zero tables past the horizon are not read."""
    rewarded = [(t, _reward_table(M, t, r)) for t, r in enumerate(reward_tables)
                if (np.asarray(r, dtype=float) != 0.0).any()]
    total, occ, at = 0.0, M.rho, 0
    for t, r in rewarded:
        if t > 0:
            _require_cover(pi, 0, t - 1)
        for u in range(at, t):
            occ = np.einsum("xa,xay->y", occ[:, None] * pi.table(u),
                            M.transition_matrix(u))
        sa, at = occ[:, None] * pi.table(t), t
        total += float(np.einsum("xa,xa->", sa, r))
    return total


# MDP -> ({(shape, bytes) of a table: its `_rows`, ("max", h): the
# `max_occupancies` at h, ("norm", h): the `_density_norms` at h}, {roll-in
# object: {s: its state law at s, (upto, tail key): its compiled law}}), the
# roll-in objects (policies by value, distributions by identity) held weakly
# too: each entry is a function of the immutable MDP and its key alone, and
# dies with the MDP or the roll-in object
_LAWS = weakref.WeakKeyDictionary()


def _laws(M, pi=None):
    """The memo of this MDP's tables, or of the roll-in object pi on it."""
    laws = _LAWS.get(M)
    if laws is None:
        laws = _LAWS[M] = ({}, weakref.WeakKeyDictionary())
    return laws[0] if pi is None else laws[1].setdefault(pi, {})


def _memo(M, key, build, pi=None):
    """``build()`` for this MDP and key, or for this MDP, policy pi and key,
    computed once and held read-only."""
    laws = _laws(M, pi)
    law = laws.get(key)
    if law is None:
        law = laws[key] = build()
        law.setflags(write=False)
    return law


def _rows_of(M, table):
    """`_rows` of a policy table or transition tensor, memoised by value."""
    return _memo(M, (table.shape, table.tobytes()), lambda: _rows(table))


def _state_law(M, pi, s):
    """The law of the state at layer s when pi plays layers 0..s-1, memoised
    as a recursion on (pi, s - 1); (pi, 0) is the law of rho."""
    def build():
        if s == 0:
            return _rows(M.rho[None])[0]
        occ = _state_law(M, pi, s - 1)
        return ((occ[:, None] * _rows(pi.table(s - 1))).ravel()
                @ _rows_of(M, M.transition_matrix(s - 1)))
    return _memo(M, s, build, pi)


def _law(M, P, upto, tail):
    """The exact law of a roll-in, after checking it: the first counted layer
    s, the (|X_s| * A,) law of (state, action) at s, and for each layer
    l = s+1..upto the pair of rows (transitions out of layer l-1, tail
    table at l) that carries the law on.

    Every component's cover and every table's shape are checked first.  The
    law at s is the weight-averaged occupancy of the components, each played
    on layers 0..s-1, times the action rows at s: the tail's first table,
    or the component's own table at s = upto when there is no tail.  Every
    table is read through `_rows`.

    `_compiled` calls it once per roll-in and holds the result; a call only
    checks and mixes by weight: the tail's and the transitions' rows (by
    value) and each component's state laws (by policy and layer) are
    memoised per MDP, both held weakly, so roll-ins that share covers pay
    each forward pass once, and a component's own action rows are read
    afresh.
    """
    tail = Policy.empty(upto + 1) if tail is None else tail
    head = upto + 1 - len(tail.tables)
    if tail.tables and tail.lo != head:
        raise LayerRangeError(f"tail covering layers [{head}..{upto}] required, "
                              f"got [{tail.lo}..{tail.hi}]")
    for pi, layers in [(comp, range(head)) for comp in P.policies] + [
            (tail, range(head, upto + 1))]:
        if layers:
            _require_cover(pi, layers[0], layers[-1])
        for t in layers:
            want, got = (M.n_states(t), M.A), pi.table(t).shape
            if got != want:
                raise VoxlabError(
                    f"policy table at layer {t} has shape {got}, expected {want}")
    s = min(head, upto)
    first = 0.0
    for comp, w in zip(P.policies, P.weights):
        if w == 0.0:
            continue
        rows = _rows_of(M, tail.table(s)) if tail.tables else _rows(comp.table(s))
        first = first + w * (_state_law(M, comp, s)[:, None] * rows).ravel()
    steps = [(_rows_of(M, M.transition_matrix(ell - 1)), _rows_of(M, tail.table(ell)))
             for ell in range(s + 1, upto + 1)]
    return s, first / first.sum(), steps


def _one_hot(rows):
    """The flat index x * A + a of each row's hot action a and whether a is
    not the last action, or (None, None) unless every row is one-hot."""
    # `_rows` leaves at least one nonzero entry in a row, and one alone is
    # x / x: 1.0, or NaN for an infinite x (np.add.reduce is rows.sum()
    # without its Python wrapper, paid per step by every first roll-in)
    flat = rows.ravel().nonzero()[0]
    if len(flat) != len(rows) or np.add.reduce(rows, None) != len(rows):
        return None, None
    return flat, rows[:, -1] == 0.0


def _compiled(M, P, upto, tail):
    """`_law` of the roll-in of P through ``upto`` with ``tail``, each step
    (transitions, tail rows) with `_one_hot` of its tail rows.

    Built once per MDP, roll-in object P (a Policy by value, a
    PolicyDistribution by identity), upto and tail value, and held weakly
    by P: the first call runs every check of `_law`, a later one none.
    """
    laws = _laws(M, P if isinstance(P, Policy) else as_distribution(P))
    key = (upto, None if tail is None else tail.action_key())
    law = laws.get(key)
    if law is None:
        s, first, steps = _law(M, as_distribution(P), upto, tail)
        first.setflags(write=False)
        law = laws[key] = (s, first, [(trans, rows) + _one_hot(rows)
                                      for trans, rows in steps])
    return law


def sample_trajectories(M, P, n, rng, upto=None, tail=None, counter=None):
    """Counts of ``n`` episodes through layer ``upto``, each rolled in with a
    policy drawn from P, drawn from their exact multinomial law.

    P is a Policy (a point mass) or a PolicyDistribution.  Every episode
    plays its drawn policy on layers 0..upto-k and the fixed ``tail`` on the
    k layers left: a Policy on layers upto-k+1..upto, none (k = 0) if not
    given.  Let s be the tail's first layer, or ``upto`` without a tail.
    Returns a list: ``counts[0]`` is the (|X_s|, A) count of (state, action)
    at s, and ``counts[i]`` for i >= 1 the (|X_s| * A, |X_{s+i}|, A) count
    of (cell x * A + a at s, state and action at s + i).  The counts take
    the draws' dtype.

    Episodes are i.i.d., so these counts are exactly as distributed as the
    tallies of n episodes drawn one by one: one multinomial draw over the
    cells at s from `_law`, then, layer by layer, one per nonzero count
    over the next states (its transition row) and one per nonzero count
    over the actions there (the tail's row).  A layer whose tail rows are
    all one-hot puts each count on its row's action, and draws one uniform
    per nonzero count whose action is not the last: numpy's multinomial
    spends exactly that on such a row (one binomial inversion at the hot
    action, which draws one double, and nothing after it; nothing at all
    when the hot action is the last), so the counts and the generator's
    state are those of the multinomial, for every bit generator.

    The cost does not grow with n.  The law is compiled once per roll-in
    (`_compiled`: the MDP, P itself, upto and the tail's value) and held
    weakly by P, with its forward passes memoised per MDP (see `_law`), so
    reused covers and policies pay each once.  The first roll-in of a key
    checks every component's cover and every table's shape before anything
    is counted or drawn; every call checks n, which ``rng.multinomial``
    takes only below 2**63.
    """
    upto = M.H - 1 if upto is None else upto
    _check_layer(M, upto)
    if not 0 <= n < 2**63:
        raise VoxlabError(f"n must be in [0, 2**63), got {n}")
    s, first, steps = _compiled(M, P, upto, tail)
    if counter is not None:
        counter.add(n)
    cells = rng.multinomial(n, first)
    counts = [cells.reshape(M.n_states(s), M.A)]
    # the nonzero counts k of the last layer counted, in row-major order of
    # (cell c at s, flat (state, action) j there)
    c = j = cells.nonzero()[0]
    k = cells[c]
    for trans, rows, flat, draws in steps:
        # (cell at s, state at this layer)
        states = np.zeros((len(cells), trans.shape[1]), dtype=cells.dtype)
        np.add.at(states, c, rng.multinomial(k, trans[j]))
        c, x = states.nonzero()
        k = states[c, x]
        if flat is None:
            acts = rng.multinomial(k, rows[x])
            i, a = acts.nonzero()
            c, j, k = c[i], x[i] * M.A + a, acts[i, a]
        else:
            rng.random(np.count_nonzero(draws[x]))
            j = flat[x]
        now = np.zeros((len(cells), states.shape[1] * M.A), dtype=cells.dtype)
        now[c, j] = k
        counts.append(now.reshape(len(cells), -1, M.A))
    return counts


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

    Every call checks the budget; the pass itself runs once per MDP and
    layer and is memoised with the MDP (`_LAWS`), and each call returns a
    fresh copy of it.
    """
    _check_layer(M, h)
    if _dp_cost(M, h) > budget:
        raise BudgetError(
            f"max-occupancy recursion at layer {h} needs {_dp_cost(M, h)} ops, "
            f"budget is {budget}"
        )

    def build():
        reach = np.eye(M.n_states(h))
        for t in range(h - 1, -1, -1):
            T = M.transition_matrix(t)
            reach = np.einsum("xay,yk->xak", T, reach).max(axis=1)
        return M.rho @ reach
    return _memo(M, ("max", h), build).copy()


def _density_norms(M, h):
    """Read-only ||mu(x)|| of every layer-h state (h >= 1), memoised with
    the MDP."""
    return _memo(M, ("norm", h), lambda: np.linalg.norm(M.mu[h - 1], axis=1))


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
    decoys, seen, attempts = [], set(), 0
    # a draw's key is its layers' permutations as bytes, one after the
    # other; each layer's length is fixed, so equal keys are equal draws
    identity = b"".join(np.arange(tab.shape[0] * tab.shape[1]).tobytes()
                        for tab in M.phi)
    while len(decoys) < n_decoys:
        attempts += 1
        if attempts > 200 * (n_decoys + 1):
            raise VoxlabError(
                f"could not find {n_decoys} distinct cell permutations"
            )
        perms = [rng.permutation(tab.shape[0] * tab.shape[1]) for tab in M.phi]
        key = b"".join(p.tobytes() for p in perms)
        if key in seen or key == identity:
            continue
        seen.add(key)
        decoys.append([
            tab.reshape(-1, M.d)[p].reshape(tab.shape)
            for tab, p in zip(M.phi, perms)
        ])
    candidates = decoys[:]
    candidates.insert(true_index, list(M.phi))
    return FeatureClass(candidates, true_index=true_index)


def reachability_eta(M, h):
    """min over layer-h states of (best-case occupancy) / (density norm).

    Only states with a nonzero density embedding qualify; the layer must be
    at least 1 since layer 0 carries no density table.
    """
    if not 1 <= h < M.H:
        raise LayerRangeError(f"reachability is defined for layers 1..{M.H - 1}")
    occ = max_occupancies(M, h)
    norms = _density_norms(M, h)
    mask = norms > 0
    if not np.any(mask):
        raise VoxlabError(f"layer {h} has no state with nonzero density embedding")
    return float((occ[mask] / norms[mask]).min())
