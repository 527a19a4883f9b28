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
from voxlab.estimators import est_mat, est_vec
from voxlab.evalcover import check_policy_cover
from voxlab.simenv import (
    argmax_policy,
    combination_lock,
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
    sample_trajectories,
)
from voxlab.simenv import _policy_cumulative

from conftest import (
    reference_rollin,
    reference_sample_trajectories,
    small_env,
    uniform_mixture,
)
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


@pytest.mark.parametrize("H, A, obs", [(6, 4, 2), (4, 3, 3), (3, 2, 1)])
def test_combination_lock_is_valid_and_uniform_play_opens_it_at_a_to_the_minus_h(
        H, A, obs):
    for seed in range(3):
        M = combination_lock(H, A, obs, seed)
        assert (M.H, M.A, M.d) == (H, A, 2)
        assert validate_mdp(M) == []
        uniform = Policy.uniform(M, 0, H - 1)
        for h in range(1, H):
            out = check_policy_cover(M, uniform, h, alpha=0.0, eps=0.0)
            assert out["alpha_measured"] == pytest.approx(float(A) ** -h,
                                                          rel=0, abs=1e-12)


def test_combination_lock_rejects_bad_sizes():
    for H, A, obs in [(1, 4, 2), (6, 0, 2), (6, 4, 0)]:
        with pytest.raises(VoxlabError):
            combination_lock(H, A, obs, 0)


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
                bar = exact_feature_expectation(M, pi, M.phi[h], h)
                pred = M.mu[h] @ bar
                assert np.allclose(pred, exact_occupancy(M, pi, h + 1), atol=1e-10)
            checks += 1
    assert checks == 100


def test_constant_feature_expectation_is_the_constant(env):
    v = np.array([0.3, -0.4])
    table = np.tile(v, (env.n_states(1), env.A, 1))
    pi = Policy.uniform(env)
    assert np.allclose(exact_feature_expectation(env, pi, table, 1), v)
    W = exact_second_moment(env, pi, table, 1)
    assert np.allclose(W, np.outer(v, v), atol=1e-12)


def test_mixture_occupancy_is_weighted_average(env):
    a = Policy.from_actions(env, [0, 0, 0])
    b = Policy.from_actions(env, [1, 1, 1])
    P = uniform_mixture([a, b])
    got = mixture_occupancy(env, P, 2)
    want = 0.5 * exact_occupancy(env, a, 2) + 0.5 * exact_occupancy(env, b, 2)
    assert np.allclose(got, want, atol=1e-12)
    sa = 0.5 * exact_occupancy_sa(env, a, 2) + 0.5 * exact_occupancy_sa(env, b, 2)
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
    """Random, one-hot, scaled one-hot, zero-mass-row, negative-entry or
    constant tables on every layer.  Scaled one-hot rows hold one positive
    entry other than 1.0; a constant table repeats one row, which is uniform,
    all zero, signed or random, in turn over the layers."""
    if kind == "one_hot":
        return Policy.from_actions(M, [rng.integers(M.A, size=M.n_states(t))
                                       for t in range(M.H)])
    tabs = []
    start = int(rng.integers(4)) if kind == "constant" else 0
    for t in range(M.H):
        tab = rng.random((M.n_states(t), M.A))
        if kind == "zero_mass":
            tab[::2] = 0.0
        elif kind == "negative":
            tab = rng.standard_normal(tab.shape)
        elif kind == "scaled_one_hot":
            scale = rng.choice([0.25, 0.5, 2.0, 3.0], size=tab.shape[0])
            tab = np.zeros(tab.shape)
            tab[np.arange(tab.shape[0]), rng.integers(M.A, size=tab.shape[0])] = scale
        elif kind == "constant":
            row = [np.full(M.A, 1.0 / M.A), np.zeros(M.A),
                   rng.standard_normal(M.A), rng.random(M.A)][(start + t) % 4]
            tab = np.tile(row, (tab.shape[0], 1))
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


@pytest.mark.parametrize("n", [0, 1, 2000, 9000])
@pytest.mark.parametrize("case", ["random", "one_hot", "zero_mass", "negative",
                                  "single_action", "short", "rotated", "wide",
                                  "constant", "scaled_one_hot"])
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
    kind = case if case in ("one_hot", "zero_mass", "negative", "constant",
                            "scaled_one_hot") else "random"
    upto = 1 if case == "short" else M.H - 1
    assert_sampler_matches_reference(M, policy_of_kind(M, rng, kind), n, upto, seed=12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4), st.integers(1, 4),
       st.sampled_from(["random", "one_hot", "zero_mass", "negative", "constant",
                        "scaled_one_hot"]),
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
        "plain": (3, Policy.empty(4)),
        "collect": (2, Policy(1, [unif[1], unif[2]])),
        "psdp": (3, Policy(1, [unif[1]] + list(greedy[2:4]))),
    }[shape]
    out, rng_state, count = [], [], []
    for sampler, arg in ((reference_rollin, list(tail.tables)),
                         (sample_trajectories, tail)):
        rng, counter = np.random.default_rng(9), EpisodeCounter()
        out.append(sampler(M, P, 500, rng, upto, arg, counter=counter))
        rng_state.append(rng.bit_generator.state)
        count.append(counter.count)
    assert out[1][0].shape == (upto + 1, 500)
    assert np.array_equal(out[0][0], out[1][0])
    assert np.array_equal(out[0][1], out[1][1])
    assert rng_state[0] == rng_state[1]
    assert count == [500, 500]
    # no episodes is an empty roll-in, drawn from nothing; a mean of none
    # is rejected by the estimators
    before = rng.bit_generator.state
    S, A = sample_trajectories(M, P, 0, rng, upto, tail, counter=counter)
    assert S.shape == A.shape == (upto + 1, 0)
    assert rng.bit_generator.state == before and counter.count == 500
    F = np.ones((M.n_states(upto), M.A, 1, 1))
    for est in (est_vec, est_mat):
        with pytest.raises(VoxlabError, match="n must be >= 1"):
            est(M, upto, F, P, 0, rng, counter=counter)
    assert rng.bit_generator.state == before and counter.count == 500


@pytest.mark.parametrize("weights", [(0.5, 0.5), (1.0, 0.0)])
@pytest.mark.parametrize("bad", ["misshaped", "short", "misshaped_tail",
                                 "tail_range"])
def test_every_component_and_the_tail_are_checked_before_any_draw(bad, weights):
    # the second component, misshaped or not covering the roll-in layers,
    # raises whatever episodes the multinomial would give it
    M = small_env(seed=3, H=4, states=(3, 4, 4, 3))
    rng = np.random.default_rng(8)
    good = random_policy(M, rng)
    tabs = list(random_policy(M, rng).tables)
    tail = Policy(2, [np.full((M.n_states(t), M.A), 1.0 / M.A) for t in (2, 3)])
    if bad == "misshaped":
        tabs[1] = np.full((M.n_states(1), M.A + 1), 0.5)
    elif bad == "short":
        tabs = tabs[:1]
    elif bad == "misshaped_tail":
        tail = Policy(2, [tail.table(2), np.ones((M.n_states(3) + 1, M.A))])
    else:
        tail = Policy(1, tail.tables)
    P = PolicyDistribution([good, Policy(0, tabs)], weights)
    error, match = {
        "misshaped": (VoxlabError, r"policy table at layer 1 has shape"),
        "short": (LayerRangeError, r"policy covering layers \[0..1\] required"),
        "misshaped_tail": (VoxlabError, r"policy table at layer 3 has shape"),
        "tail_range": (LayerRangeError, r"tail covering layers \[2..3\]"),
    }[bad]
    S = np.full((M.H, 100), -1, dtype=np.int64)
    A = np.full((M.H, 100), -1, dtype=np.int64)
    counter = EpisodeCounter()
    before = rng.bit_generator.state
    with pytest.raises(error, match=match):
        sample_trajectories(M, P, 100, rng, M.H - 1, tail, counter=counter,
                            out=(S, A))
    assert counter.count == 0
    assert rng.bit_generator.state == before
    assert (S == -1).all() and (A == -1).all()


def test_policy_tables_pick_the_one_row_one_hot_or_general_draw():
    one_row = [np.full((4, 3), 1.0 / 3.0), np.zeros((4, 3)),
               np.tile([0.5, -1.0, 2.0], (4, 1)), np.tile([0.0, 1.0, 0.0], (4, 1))]
    for tab in one_row:
        cum, hot = _policy_cumulative(tab)
        assert cum.shape == (3, 1) and hot is None
        assert np.array_equal(cum[:, 0], np.cumsum(np.clip(tab[0], 0.0, None)))
    one_hot = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                        [0.0, 1.0, -2.0]])  # clipped, the last row is one-hot
    cum, hot = _policy_cumulative(one_hot)
    assert cum.shape == (3, 4) and np.array_equal(hot, [1, 0, 2, 1])
    for tab in (2.5 * one_hot, np.array([[0.0, 1.0], [0.5, 0.5]]),
                np.array([[1.0, 0.0], [0.0, 0.999]])):
        cum, hot = _policy_cumulative(tab)
        assert cum.shape == (tab.shape[1], tab.shape[0]) and hot is None


def test_sampler_fills_column_slices_of_a_wider_pair():
    M = small_env(seed=3, H=4, A=3, states=(3, 4, 5, 3))
    rng = np.random.default_rng(21)
    P = PolicyDistribution([random_policy(M, rng), policy_of_kind(M, rng, "one_hot"),
                            policy_of_kind(M, rng, "constant")], [0.5, 0.2, 0.3])
    tail = Policy(3, [np.full((M.n_states(3), M.A), 1.0 / M.A)])
    cols = slice(7, 307)
    for reference, args in (
            (reference_sample_trajectories, (P.policies[0],)),
            (reference_rollin, (P,))):
        S = np.full((M.H, 320), -1, dtype=np.int64)
        A = np.full((M.H, 320), -1, dtype=np.int64)
        counter = EpisodeCounter()
        rng = np.random.default_rng(22)
        kw = {"tail": tail} if reference is reference_rollin else {}
        got = sample_trajectories(M, *args, 300, rng, upto=3, counter=counter,
                                  out=(S[:, cols], A[:, cols]), **kw)
        assert got[0].base is S and got[1].base is A
        want_rng = np.random.default_rng(22)
        want = reference(M, *args, 300, want_rng, 3,
                         *[list(t.tables) for t in kw.values()])
        assert np.array_equal(S[:, cols], want[0])
        assert np.array_equal(A[:, cols], want[1])
        assert rng.bit_generator.state == want_rng.bit_generator.state
        assert counter.count == 300
        for arr in (S, A):
            assert (arr[:, :7] == -1).all() and (arr[:, 307:] == -1).all()


@pytest.mark.parametrize("bad", ["shape", "dtype", "read_only", "list", "single",
                                 "not_array"])
def test_a_bad_out_pair_raises_before_counting_or_drawing(bad):
    M = small_env(seed=3, H=3, states=(3, 4, 4))
    shape = (M.H, 20)
    good = np.empty(shape, dtype=np.int64)
    frozen = np.empty(shape, dtype=np.int64)
    frozen.setflags(write=False)
    out = {
        "shape": (good, np.empty((M.H, 21), dtype=np.int64)),
        "dtype": (good, np.empty(shape, dtype=np.int32)),
        "read_only": (frozen, good),
        "list": [good, np.empty(shape, dtype=np.int64)],
        "single": (good,),
        "not_array": (good, good.tolist()),
    }[bad]
    pi = Policy.uniform(M)
    for P in (pi, as_distribution(pi)):
        rng, counter = np.random.default_rng(3), EpisodeCounter()
        before = rng.bit_generator.state
        with pytest.raises(VoxlabError, match="out must be"):
            sample_trajectories(M, P, 20, rng, upto=M.H - 1, counter=counter,
                                out=out)
        assert counter.count == 0
        assert rng.bit_generator.state == before


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
