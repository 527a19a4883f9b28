"""Synthetic environments, exact occupancy algebra, samplers, reachability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxlab import (
    BudgetError,
    EnvSpec,
    EpisodeCounter,
    FeatureClass,
    LayeredLowRankMDP,
    LayerRangeError,
    Policy,
    PolicyDistribution,
    VoxlabError,
    as_distribution,
    generate_low_rank_mdp,
    validate_mdp,
)
from voxlab.simenv import (
    argmax_policy,
    exact_feature_expectation,
    exact_occupancy,
    exact_occupancy_sa,
    exact_policy_value,
    exact_q_tables,
    exact_second_moment,
    make_feature_class,
    max_occupancies,
    max_value,
    mixture_occupancy,
    reachability_eta,
    rollin,
    sample_trajectories,
)

from conftest import small_env, uniform_mixture
from oracles import (
    brute_max_occupancy,
    enum_paths_occupancy,
    enumerate_det_policies,
)


def random_policy(M, rng, lo=0, hi=None):
    hi = M.H - 1 if hi is None else hi
    tabs = []
    for h in range(lo, hi + 1):
        t = rng.random((M.n_states(h), M.A)) + 0.05
        tabs.append(t / t.sum(axis=1, keepdims=True))
    return Policy(lo, tabs)


# --------------------------------------------------------------- generator


def test_envspec_rejects_bad_recipes():
    with pytest.raises(VoxlabError):
        EnvSpec(H=1, A=2, d_latent=2, state_counts=[3])
    with pytest.raises(VoxlabError):
        EnvSpec(H=2, A=2, d_latent=2, state_counts=[3])  # wrong length
    with pytest.raises(VoxlabError):
        EnvSpec(H=2, A=2, d_latent=2, state_counts=[3, 3], boost=1.0)
    with pytest.raises(VoxlabError):
        EnvSpec(H=2, A=0, d_latent=2, state_counts=[3, 3])


def test_generated_envs_validate_clean():
    for seed in range(5):
        M = small_env(seed=seed, H=3, A=2, d=2, states=(2, 3, 3))
        assert validate_mdp(M) == []


def test_generator_is_seed_deterministic():
    a = small_env(seed=9)
    b = small_env(seed=9)
    assert a.to_json() == b.to_json()
    c = small_env(seed=10)
    assert c.to_json() != a.to_json()


def test_rank_one_env_forgets_state_and_action():
    # d = 1 forces every transition row to equal the single density column
    M = small_env(seed=2, H=3, A=3, d=1, states=(2, 4, 3))
    for h in range(M.H - 1):
        T = M.transition_matrix(h)
        base = T[0, 0]
        assert np.allclose(T, base[None, None, :], atol=1e-12)


def test_rotate_produces_negative_entries_but_stays_valid():
    hit = False
    for seed in range(4):
        M = small_env(seed=seed, rotate=True)
        assert validate_mdp(M) == []
        if min(float(p.min()) for p in M.phi) < 0:
            hit = True
    assert hit, "rotation never produced a negative feature entry"


def test_boost_lifts_reachability():
    plain = small_env(seed=4, H=3, A=2, d=2, states=(3, 4, 4), boost=0.0)
    boosted = small_env(seed=4, H=3, A=2, d=2, states=(3, 4, 4), boost=0.7)
    eta_b = min(reachability_eta(boosted, h) for h in (1, 2))
    assert eta_b >= 0.2
    assert eta_b >= min(reachability_eta(plain, h) for h in (1, 2)) - 1e-9


# ------------------------------------------------------- exact occupancies


def test_occupancy_layer_zero_is_rho(env):
    pi = Policy.empty(0)
    assert np.array_equal(exact_occupancy(env, pi, 0), env.rho)


def test_occupancy_is_probability_vector(env):
    rng = np.random.default_rng(0)
    pi = random_policy(env, rng)
    for h in range(env.H):
        occ = exact_occupancy(env, pi, h)
        assert occ.min() >= -1e-12
        assert abs(occ.sum() - 1.0) < 1e-9


def test_occupancy_matches_path_enumeration():
    rng = np.random.default_rng(1)
    for seed in range(5):
        M = small_env(seed=seed, H=3, A=2, d=2, states=(2, 3, 3))
        pi = random_policy(M, rng)
        for h in range(M.H):
            assert np.allclose(
                exact_occupancy(M, pi, h), enum_paths_occupancy(M, pi, h), atol=1e-12
            )


def test_occupancy_requires_covering_policy(env):
    short = Policy.from_actions(env, [0], lo=0)
    with pytest.raises(LayerRangeError):
        exact_occupancy(env, short, 2)
    with pytest.raises(LayerRangeError):
        exact_occupancy(env, Policy.uniform(env), env.H)


def test_next_layer_occupancy_factors_through_features():
    # d^pi_{h+1}(x') = mu_h(x') . E^pi[phi_h(x_h, a_h)] for every policy:
    # the one-step pushforward only sees the expected feature vector
    rng = np.random.default_rng(2)
    checks = 0
    for seed in range(20):
        M = small_env(seed=seed, H=4, A=2, d=3, states=(2, 3, 3, 3))
        for _ in range(5):
            pi = random_policy(M, rng)
            for h in range(M.H - 1):
                bar = exact_feature_expectation(M, pi, M.phi, h)
                pred = M.mu[h] @ bar
                assert np.allclose(pred, exact_occupancy(M, pi, h + 1), atol=1e-10)
            checks += 1
    assert checks == 100


def test_constant_feature_expectation_is_the_constant(env):
    v = np.array([0.3, -0.4])
    table = np.tile(v, (env.n_states(1), env.A, 1))
    pi = Policy.uniform(env)
    assert np.allclose(exact_feature_expectation(env, pi, [None, table], 1), v)
    W = exact_second_moment(env, pi, [None, table], 1)
    assert np.allclose(W, np.outer(v, v), atol=1e-12)


def test_mixture_occupancy_is_weighted_average(env):
    a = Policy.from_actions(env, [0, 0, 0])
    b = Policy.from_actions(env, [1, 1, 1])
    P = uniform_mixture([a, b])
    got = mixture_occupancy(env, P, 2)
    want = 0.5 * exact_occupancy(env, a, 2) + 0.5 * exact_occupancy(env, b, 2)
    assert np.allclose(got, want, atol=1e-12)
    sa = mixture_occupancy(env, P, 2, with_actions=True)
    assert np.allclose(sa.sum(axis=1), got, atol=1e-12)


def test_q_tables_back_out_the_policy_value(env):
    rng = np.random.default_rng(3)
    pi = random_policy(env, rng)
    rewards = [rng.random((env.n_states(t), env.A)) for t in range(env.H)]
    q = exact_q_tables(env, pi, rewards)
    v0 = float(env.rho @ (pi.table(0) * q[0]).sum(axis=1))
    assert abs(v0 - exact_policy_value(env, pi, rewards)) < 1e-10


# ----------------------------------------------------------------- sampling


def test_sampled_state_frequencies_match_exact_occupancy(env):
    pi = Policy.uniform(env)
    rng = np.random.default_rng(4)
    n = 20_000
    states, actions = sample_trajectories(env, pi, n, rng)
    assert states.shape == (env.H, n) and actions.shape == (env.H, n)
    for h in range(env.H):
        emp = np.bincount(states[h], minlength=env.n_states(h)) / n
        tv = 0.5 * np.abs(emp - exact_occupancy(env, pi, h)).sum()
        assert tv <= 0.02


def test_sampler_respects_upto_and_counter(env):
    pi = Policy.from_actions(env, [0], lo=0)
    counter = EpisodeCounter()
    states, actions = sample_trajectories(
        env, pi, 50, np.random.default_rng(5), upto=0, counter=counter
    )
    assert states.shape == (1, 50)
    assert counter.count == 50
    with pytest.raises(LayerRangeError):
        sample_trajectories(env, pi, 5, np.random.default_rng(6), upto=2)
    with pytest.raises(VoxlabError):
        sample_trajectories(env, pi, -5, np.random.default_rng(6), upto=0,
                            counter=counter)
    assert counter.count == 50
    states, actions = sample_trajectories(env, pi, 0, np.random.default_rng(6),
                                          upto=0, counter=counter)
    assert states.shape == actions.shape == (1, 0)
    assert counter.count == 50
    n0, A = env.n_states(0), env.A
    for bad in (np.full((n0, A + 1), 0.5), np.ones((n0, 1)), np.ones((n0 + 1, A))):
        with pytest.raises(VoxlabError, match=r"layer 0 .*\(%d, %d\)" % (n0, A)):
            sample_trajectories(env, Policy(0, [bad]), 5, np.random.default_rng(6),
                                upto=0, counter=counter)
        assert counter.count == 50
    wide = Policy(0, [pi.table(0), np.full((env.n_states(1), A + 1), 0.5)])
    with pytest.raises(VoxlabError, match="layer 1"):
        sample_trajectories(env, wide, 5, np.random.default_rng(6), upto=1,
                            counter=counter)
    assert counter.count == 50


def reference_sample_trajectories(M, pi, n, rng, upto):
    """The gather-clip-cumsum loop the cumulative tables replaced, kept as reference."""

    def categorical_rows(p):
        p = np.clip(p, 0.0, None)
        cum = np.cumsum(p, axis=1)
        u = rng.random(p.shape[0]) * cum[:, -1]
        idx = (cum <= u[:, None]).sum(axis=1)
        return np.minimum(idx, p.shape[1] - 1)

    states = np.empty((upto + 1, n), dtype=np.int64)
    actions = np.empty((upto + 1, n), dtype=np.int64)
    cum_rho = np.cumsum(M.rho)
    x = np.searchsorted(cum_rho, rng.random(n) * cum_rho[-1], side="right")
    x = np.minimum(x, M.n_states(0) - 1)
    for t in range(upto + 1):
        states[t] = x
        a = categorical_rows(pi.table(t)[x])
        actions[t] = a
        if t < upto:
            x = categorical_rows(M.transition_matrix(t)[x, a])
    return states, actions


def signed_mdp(rng, counts, A, d=2):
    """A factored MDP whose transition rows hold negative entries and zero rows."""
    H = len(counts)
    ids = np.cumsum([0] + list(counts))
    layers = [list(range(ids[h], ids[h + 1])) for h in range(H)]
    phi = [rng.standard_normal((counts[h], A, d)) for h in range(H - 1)]
    for p in phi:
        p[::2, 0] = 0.0
    mu = [rng.standard_normal((counts[h + 1], d)) for h in range(H - 1)]
    rho = rng.dirichlet(np.ones(counts[0]))
    return LayeredLowRankMDP(H, A, d, layers, phi, mu, rho)


def policy_of_kind(M, rng, kind):
    """Random, one-hot, zero-mass-row or negative-entry tables on every layer."""
    if kind == "one_hot":
        return Policy.from_actions(M, [rng.integers(M.A, size=M.n_states(t))
                                       for t in range(M.H)])
    tabs = []
    for t in range(M.H):
        tab = rng.random((M.n_states(t), M.A))
        if kind == "zero_mass":
            tab[::2] = 0.0
        elif kind == "negative":
            tab = rng.standard_normal(tab.shape)
        tabs.append(tab)
    return Policy(0, tabs)


def assert_sampler_matches_reference(M, pi, n, upto, seed):
    out, rng_state = [], []
    for sampler in (reference_sample_trajectories, sample_trajectories):
        rng = np.random.default_rng(seed)
        out.append(sampler(M, pi, n, rng, upto))
        rng_state.append(rng.bit_generator.state)
    (S0, A0), (S1, A1) = out
    assert S1.shape == A1.shape == (upto + 1, n)
    assert S0.dtype == S1.dtype and A0.dtype == A1.dtype
    assert np.array_equal(S0, S1)
    assert np.array_equal(A0, A1)
    assert rng_state[0] == rng_state[1]


@pytest.mark.parametrize("n", [0, 1, 2000])
@pytest.mark.parametrize("case", ["random", "one_hot", "zero_mass", "negative",
                                  "single_action", "short", "rotated", "wide"])
def test_sampler_matches_the_per_row_reference(case, n):
    rng = np.random.default_rng(11)
    if case in ("zero_mass", "negative"):
        M = signed_mdp(rng, (3, 5, 4, 3), A=3)
    elif case == "single_action":
        M = small_env(seed=4, H=3, A=1, states=(3, 4, 4))
    elif case == "wide":
        M = small_env(seed=2, H=3, A=2, d=3, states=(3, 45, 41))
    else:
        M = small_env(seed=3, H=4, A=3, states=(3, 4, 5, 3), rotate=case == "rotated")
    kind = case if case in ("one_hot", "zero_mass", "negative") else "random"
    upto = 1 if case == "short" else M.H - 1
    assert_sampler_matches_reference(M, policy_of_kind(M, rng, kind), n, upto, seed=12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4), st.integers(1, 4),
       st.sampled_from(["random", "one_hot", "zero_mass", "negative"]),
       st.booleans(), st.integers(0, 300))
def test_sampler_matches_the_reference_on_random_shapes(seed, H, A, kind, signed, n):
    rng = np.random.default_rng(seed)
    counts = [int(c) for c in rng.integers(1, 40, size=H)]
    if signed:
        M = signed_mdp(rng, counts, A=A, d=int(rng.integers(1, 4)))
    else:
        M = small_env(seed=seed, H=H, A=A, d=int(rng.integers(1, 4)), states=counts,
                      rotate=bool(rng.integers(2)))
    upto = int(rng.integers(H))
    assert_sampler_matches_reference(M, policy_of_kind(M, rng, kind), n, upto,
                                     seed=seed + 1)


def test_sampler_builds_rho_and_transition_tables_once_per_mdp():
    rng = np.random.default_rng(31)
    M1 = small_env(seed=5, H=4, A=3, states=(3, 4, 5, 3))
    M2 = small_env(seed=6, H=4, A=3, states=(3, 4, 5, 3))
    pi = policy_of_kind(M1, rng, "random")
    assert all(cum is None for cum in M1._cumulatives)
    assert_sampler_matches_reference(M1, pi, 300, 1, seed=1)  # cold, partial
    assert [cum is None for cum in M1._cumulatives] == [False, False, True, True]
    assert_sampler_matches_reference(M1, pi, 300, M1.H - 1, seed=2)  # fills the rest
    built = list(M1._cumulatives)
    assert all(not cum.flags.writeable for cum in built)
    assert_sampler_matches_reference(M1, pi, 300, M1.H - 1, seed=3)  # warm
    assert all(a is b for a, b in zip(M1._cumulatives, built))
    # a second MDP of the same shapes builds and uses its own tables
    assert all(cum is None for cum in M2._cumulatives)
    assert_sampler_matches_reference(M2, pi, 300, M2.H - 1, seed=3)
    assert not any(np.array_equal(a, b)
                   for a, b in zip(M1._cumulatives, M2._cumulatives))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40), st.integers(0, 200))
def test_initial_states_match_a_search_of_the_cumulative_rho(seed, n0, n):
    # rho with zero-mass entries, trailing ones included
    rng = np.random.default_rng(seed)
    rho = rng.random(n0) * (rng.random(n0) < 0.7)
    rho[int(rng.integers(n0))] += 0.1
    M = LayeredLowRankMDP(2, 1, 1, [list(range(n0)), [n0]],
                          [np.ones((n0, 1, 1))], [np.ones((1, 1))], rho / rho.sum())
    S, _ = sample_trajectories(M, Policy.uniform(M), n, np.random.default_rng(seed),
                               upto=0)
    cum = np.cumsum(M.rho)
    want = np.searchsorted(cum, np.random.default_rng(seed).random(n) * cum[-1],
                           side="right")
    assert np.array_equal(S[0], np.minimum(want, n0 - 1))


def reference_rollin(M, P, n, rng, upto, tail=(), counter=None):
    """The per-component loop that rollin replaced, kept as its reference."""
    P = as_distribution(P)
    per_comp = rng.multinomial(n, P.weights)
    states, actions = [], []
    for comp, cnt in zip(P.policies, per_comp):
        if cnt == 0:
            continue
        tabs = [comp.table(t) for t in range(upto + 1 - len(tail))] + list(tail)
        S, A = sample_trajectories(M, Policy(0, tabs), int(cnt), rng, upto=upto,
                                   counter=counter)
        states.append(S)
        actions.append(A)
    return np.concatenate(states, axis=1), np.concatenate(actions, axis=1)


@pytest.mark.parametrize("shape", ["plain", "collect", "psdp"])
def test_rollin_matches_the_per_component_loop(shape):
    M = small_env(seed=3, H=4, states=(3, 4, 4, 3))
    rng = np.random.default_rng(8)
    P = PolicyDistribution([random_policy(M, rng) for _ in range(3)],
                           [0.6, 0.0, 0.4])
    unif = [np.full((M.n_states(t), M.A), 1.0 / M.A) for t in range(M.H)]
    greedy = Policy.from_actions(M, [rng.integers(M.A, size=M.n_states(t))
                                     for t in range(M.H)]).tables
    upto, tail = {
        "plain": (3, ()),
        "collect": (2, [unif[1], unif[2]]),
        "psdp": (3, [unif[1]] + list(greedy[2:4])),
    }[shape]
    out, rng_state, count = [], [], []
    for sampler in (reference_rollin, rollin):
        rng, counter = np.random.default_rng(9), EpisodeCounter()
        out.append(sampler(M, P, 500, rng, upto, tail, counter=counter))
        rng_state.append(rng.bit_generator.state)
        count.append(counter.count)
    assert out[1][0].shape == (upto + 1, 500)
    assert np.array_equal(out[0][0], out[1][0])
    assert np.array_equal(out[0][1], out[1][1])
    assert rng_state[0] == rng_state[1]
    assert count == [500, 500]
    with pytest.raises(VoxlabError):
        rollin(M, P, 0, rng, upto)


# ------------------------------------------------------------- reachability


def test_max_occupancies_match_brute_force():
    for seed in range(4):
        M = small_env(seed=seed, H=3, A=2, d=2, states=(2, 3, 3))
        for h in range(M.H):
            assert np.allclose(
                max_occupancies(M, h), brute_max_occupancy(M, h), atol=1e-12
            )


def test_max_value_and_argmax_policy_agree_with_enumeration(env):
    rng = np.random.default_rng(7)
    g = rng.random((env.n_states(2), env.A))
    best = max_value(env, 2, g)
    brute = max(
        float(np.einsum("xa,xa->", exact_occupancy_sa(env, pi, 2), g))
        for pi in enumerate_det_policies(env, 2)
    )
    assert abs(best - brute) < 1e-12
    pi_star = argmax_policy(env, 2, g)
    attained = float(np.einsum("xa,xa->", exact_occupancy_sa(env, pi_star, 2), g))
    assert abs(attained - best) < 1e-12


def test_rank_one_reachability_closed_form():
    # with d = 1 every policy induces occupancy equal to the density column,
    # so occ(x)/|mu(x)| = 1 wherever the column is positive
    M = small_env(seed=6, H=3, A=2, d=1, states=(2, 4, 3))
    for h in (1, 2):
        assert abs(reachability_eta(M, h) - 1.0) < 1e-12


def test_reachability_layer_range_and_budget(env):
    with pytest.raises(LayerRangeError):
        reachability_eta(env, 0)
    with pytest.raises(BudgetError) as exc:
        max_occupancies(env, 2, budget=1)
    assert "budget" in str(exc.value)


# ------------------------------------------------------------ feature class


def test_make_feature_class_structure(env):
    rng = np.random.default_rng(8)
    Phi = make_feature_class(env, n_decoys=3, rng=rng, true_index=1)
    assert len(Phi) == 4
    assert Phi.true_index == 1
    for h in range(env.H - 1):
        assert np.array_equal(Phi[1][h], env.phi[h])
        for i in (0, 2, 3):
            tab = Phi[i][h]
            assert tab.shape == env.phi[h].shape
            # decoys hold the same multiset of feature vectors, rearranged
            a = np.sort(tab.reshape(-1, env.d), axis=0)
            b = np.sort(env.phi[h].reshape(-1, env.d), axis=0)
            assert np.allclose(a, b, atol=1e-12)
    assert any(
        not np.array_equal(Phi[0][h], env.phi[h]) for h in range(env.H - 1)
    )
    assert max(float(np.linalg.norm(tab, axis=2).max())
               for cand in Phi.candidates for tab in cand) <= 1.0 + 1e-12


def test_true_index_places_the_true_map(env):
    for true_index in range(3):
        Phi = make_feature_class(env, n_decoys=2, rng=np.random.default_rng(9),
                                 true_index=true_index)
        assert Phi.true_index == true_index
        for h in range(env.H - 1):
            assert np.array_equal(Phi[true_index][h], env.phi[h])
    for bad in (-1, 3, 5):
        rng = np.random.default_rng(9)
        with pytest.raises(VoxlabError):
            make_feature_class(env, n_decoys=2, rng=rng, true_index=bad)
        # rejected before any draw
        assert rng.bit_generator.state == np.random.default_rng(9).bit_generator.state
    for bad in (-1, 2):
        with pytest.raises(VoxlabError):
            FeatureClass([list(env.phi), list(env.phi)], true_index=bad)


def test_feature_class_stacks_each_layer_once(env):
    phi = [np.array(t) for t in env.phi]
    Phi = FeatureClass([phi, [t[::-1].copy() for t in phi]])
    for h in range(env.H - 1):
        T = Phi.tables_at(h)
        assert T.shape == (2,) + phi[h].shape and T.flags.c_contiguous
        assert not T.flags.writeable and T.flags.owndata
        assert Phi.tables_at(h) is T
        for i in range(2):
            assert np.shares_memory(Phi[i][h], T)
            assert np.array_equal(Phi[i][h], T[i])
        assert phi[h].flags.writeable  # the caller's table is left as it was
        assert not np.shares_memory(phi[h], T)
