"""Synthetic environments, exact occupancy algebra, samplers, reachability."""

import gc
import hashlib
import pickle
import re
import weakref

import numpy as np
import pytest
from scipy.stats import chi2_contingency
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
    validate_mdp,
)
from voxlab import simenv
from voxlab.estimators import est_mat, est_vec
from voxlab.evalcover import check_policy_cover
from voxlab.psdp import psdp
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
from voxlab.simenv import _law

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
    oracle_occupancy,
    oracle_transition,
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


def test_envspec_rejects_a_zero_state_count():
    with pytest.raises(VoxlabError, match="state counts must all be >= 1"):
        EnvSpec(H=2, A=2, d_latent=2, state_counts=[3, 0])


def test_a_feature_class_needs_enough_distinct_cell_permutations():
    # one state and two actions: the only permutation but the identity
    # swaps the two cells, so a second decoy does not exist
    M = small_env(seed=0, H=2, A=2, d=1, states=(1, 1))
    assert len(make_feature_class(M, 1, np.random.default_rng(0))) == 2
    with pytest.raises(VoxlabError, match="could not find 2 distinct cell permutations"):
        make_feature_class(M, 2, np.random.default_rng(0))


def test_reachability_needs_a_state_with_a_nonzero_density(env):
    mu = [np.zeros_like(env.mu[0]), *env.mu[1:]]
    M = LayeredLowRankMDP(env.H, env.A, env.d, env.layers, env.phi, mu, env.rho)
    with pytest.raises(VoxlabError,
                       match="layer 1 has no state with nonzero density embedding"):
        reachability_eta(M, 1)


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


@pytest.mark.parametrize("d, boost", [(1, 0.0), (2, 0.0), (3, 0.5), (5, 0.0)])
def test_rotate_flips_signs_and_keeps_every_transition(d, boost):
    for seed in range(3):
        kw = dict(seed=seed, H=4, A=3, d=d, states=(3, 4, 5, 2), boost=boost)
        M, R = small_env(**kw), small_env(**kw, rotate=True)
        for h in range(M.H - 1):
            # the latent assignments are positive, so a sign is read off any row
            signs = np.sign(R.phi[h][0, 0])
            assert set(signs) <= {-1.0, 1.0} and -1.0 in signs
            assert np.array_equal(R.phi[h], M.phi[h] * signs)
            assert np.array_equal(R.mu[h], M.mu[h] * signs)
            assert R.transition_matrix(h).tobytes() == M.transition_matrix(h).tobytes()


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


@pytest.mark.parametrize("H, A, obs, seed, digest", [
    (2, 1, 1, 0, "bea1fda8319b5b7d4dd0194592764c39fc943d23fa813f3453121e8fef284d98"),
    (3, 2, 1, 5, "1ac6e942b312a6e6a8c739f4ceb5053759fbe6de29959fa1dd8ffb5d2abbfa1b"),
    (4, 3, 3, 11, "707986757136a87f0882e65c62c194c953f113f026f3bbc086f9789f0ce472b6"),
    (5, 2, 4, 123, "75c05b88d693edbe1c6ddc2fa4a2cc9a6648bc5d25f57ed2d228f41b49792152"),
    (6, 4, 2, 0, "f7a70a6a736ce658b60be12884ec3f16315b5f757485d77b8e08a732a516bd49"),
    (6, 4, 2, 7001, "5da44aeeccd79d3d5587521a14a08a85e0025ced1c95bbd52b2c7448423695d3"),
    (8, 5, 2, 99, "295b8c99d8c9e7a2b0f12a80547244e3776073441d52329a88addf28abfbd982"),
])
def test_combination_lock_bytes_are_pinned(H, A, obs, seed, digest):
    # the SHA-256 of the lock's JSON, on shapes off the benchmark's (6, 4, 2)
    # too, so a change to the lock's signature (ROADMAP items 9 and 21) can
    # show that its default output is byte-identical
    M = combination_lock(H, A, obs, seed)
    assert hashlib.sha256(M.to_json().encode()).hexdigest() == digest


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


def per_layer_value(M, pi, reward_tables):
    """The value as a sum of one exact occupancy per rewarded layer, each
    computed afresh from rho."""
    total = 0.0
    for t, r in enumerate(reward_tables):
        if np.any(np.asarray(r) != 0.0):
            sa = exact_occupancy_sa(M, pi, t)
            total += float(np.einsum("xa,xa->", sa, np.asarray(r, dtype=float)))
    return total


@pytest.mark.parametrize("mask", ["10101", "01001", "00010", "11111", "10000",
                                  "00000", "011"])
def test_policy_value_is_the_per_layer_sum_bit_for_bit(mask):
    # zero-reward layers interleaved with rewarded ones, of a horizon whose
    # layers differ in size, and a reward list shorter than H
    M = small_env(seed=5, H=5, states=(3, 4, 2, 4, 3))
    rng = np.random.default_rng(6)
    pi = random_policy(M, rng)
    tables = [rng.standard_normal((M.n_states(t), M.A)) * int(m)
              for t, m in enumerate(mask)]
    got = exact_policy_value(M, pi, tables)
    assert got == per_layer_value(M, pi, tables)
    want = sum(float((oracle_occupancy(M, pi, t)[:, None] * pi.table(t) * r).sum())
               for t, r in enumerate(tables))
    assert abs(got - want) <= 1e-12


def test_policy_value_checks_each_rewarded_layer_as_the_per_layer_sum_does():
    M = small_env(seed=5, H=5, states=(3, 4, 2, 4, 3))
    rng = np.random.default_rng(6)
    pi = random_policy(M, rng, hi=2)
    zeros = [np.zeros((M.n_states(t), M.A)) for t in range(M.H)]
    # zero rewards are not read, on uncovered layers or past the horizon
    assert exact_policy_value(M, pi, zeros + [np.zeros(1)]) == 0.0
    for play, layer in [(pi, 3), (random_policy(M, rng, lo=1), 2), (pi, M.H)]:
        tables = zeros + [np.zeros(1)]
        tables[0] = np.ones((M.n_states(0), M.A))
        tables[layer] = np.ones((M.n_states(min(layer, M.H - 1)), M.A))
        with pytest.raises(LayerRangeError) as want:
            per_layer_value(M, play, tables)
        with pytest.raises(LayerRangeError, match=re.escape(str(want.value))):
            exact_policy_value(M, play, tables)


@pytest.mark.parametrize("shape", [(1, 2), (2, 1)])
def test_misshaped_reward_tables_raise_as_psdp_does(shape):
    # a (1, A) or (|X_1|, 1) table at layer 1 would broadcast over the
    # cells: the value read 1.0 and the Q tables came out (2, 2)
    M = combination_lock(4, 2, 1, 0)
    unif = Policy.uniform(M)
    tables = [np.zeros((M.n_states(t), M.A)) for t in range(3)]
    tables[1] = np.ones(shape)
    message = re.escape(f"reward table at layer 1 has shape {shape}, expected (2, 2)")
    for evaluate in (exact_policy_value, exact_q_tables):
        with pytest.raises(VoxlabError, match=message):
            evaluate(M, unif, tables)
    with pytest.raises(VoxlabError, match=message):
        psdp(M, 2, tables, None, 1.0, [unif] * 3, 10, np.random.default_rng(0))


# ----------------------------------------------------------------- sampling


def test_sampled_state_frequencies_match_exact_occupancy(env):
    pi = Policy.uniform(env)
    rng = np.random.default_rng(4)
    n = 20_000
    for h in range(env.H):
        counts = sample_trajectories(env, pi, n, rng, upto=h)
        assert len(counts) == 1 and counts[0].shape == (env.n_states(h), env.A)
        emp = counts[0].sum(axis=1) / n
        tv = 0.5 * np.abs(emp - exact_occupancy(env, pi, h)).sum()
        assert tv <= 0.02


def test_sampler_respects_upto_and_counter(env):
    pi = Policy.from_actions(env, [0], lo=0)
    counter = EpisodeCounter()
    counts = sample_trajectories(env, pi, 50, np.random.default_rng(5), upto=0,
                                 counter=counter)
    assert len(counts) == 1 and counts[0].shape == (env.n_states(0), env.A)
    assert counts[0].dtype == np.int64 and counts[0].sum() == 50
    assert (counts[0][:, 1:] == 0).all()
    assert counter.count == 50
    with pytest.raises(LayerRangeError):
        sample_trajectories(env, pi, 5, np.random.default_rng(6), upto=2)
    with pytest.raises(VoxlabError):
        sample_trajectories(env, pi, -5, np.random.default_rng(6), upto=0,
                            counter=counter)
    with pytest.raises(VoxlabError, match="expected Policy or PolicyDistribution"):
        sample_trajectories(env, [pi], 5, np.random.default_rng(6), upto=0,
                            counter=counter)
    assert counter.count == 50
    counts = sample_trajectories(env, pi, 0, np.random.default_rng(6), upto=0,
                                 counter=counter)
    assert counts[0].shape == (env.n_states(0), env.A) and counts[0].sum() == 0
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


@pytest.mark.parametrize("n", [2**63, 2**70, -1])
def test_an_n_that_multinomial_cannot_take_raises_before_drawing(env, n):
    # rng.multinomial takes n only below 2**63; one below it draws, at a
    # cost that does not grow with n
    rng, counter = np.random.default_rng(7), EpisodeCounter()
    before = rng.bit_generator.state
    tail = Policy.uniform(env, 1, 2)
    with pytest.raises(VoxlabError, match=r"n must be in \[0, 2\*\*63\)"):
        sample_trajectories(env, Policy.uniform(env), n, rng, 2, tail, counter=counter)
    assert counter.count == 0 and rng.bit_generator.state == before
    counts = sample_trajectories(env, Policy.uniform(env), 2**63 - 1, rng, 2, tail,
                                 counter=counter)
    assert counter.count == 2**63 - 1
    assert [int(c.sum()) for c in counts] == [2**63 - 1] * 2


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


def per_row_law(M, pi, upto):
    """The exact law of (state, action) at layer upto under the per-row
    draws of the frozen `reference_sample_trajectories`: inverse-CDF
    sampling from a clipped row picks each entry with its share of the
    row's positive mass, and the last entry when the row has none.  Plain
    loops over the oracle transitions."""

    def row_law(row):
        pos = [max(float(v), 0.0) for v in row]
        total = sum(pos)
        if total == 0.0:
            return np.eye(len(row))[-1]
        return np.array(pos) / total

    occ = row_law(M.rho)
    for t in range(upto + 1):
        sa = np.zeros((M.n_states(t), M.A))
        for x in range(M.n_states(t)):
            sa[x] = occ[x] * row_law(pi.table(t)[x])
        if t == upto:
            return sa
        T = oracle_transition(M, t)
        occ = np.zeros(M.n_states(t + 1))
        for x in range(M.n_states(t)):
            for a in range(M.A):
                occ += sa[x, a] * row_law(T[x, a])


def assert_same_law(a, b):
    """Chi-square test that two count arrays of one shape come from one law,
    over the cells either visits."""
    a, b = np.ravel(a), np.ravel(b)
    keep = (a + b) > 0
    if keep.sum() > 1:
        assert chi2_contingency(np.stack([a[keep], b[keep]])).pvalue > 1e-4


def assert_sampler_matches_reference(M, pi, n, upto, seed):
    """The count sampler's law at upto equals the per-row reference's to
    1e-12, its counts land only where that law has mass, and from 2,000
    episodes on they pass a chi-square test against the reference's own
    tallies of the same number of episodes."""
    counter = EpisodeCounter()
    counts = sample_trajectories(M, pi, n, np.random.default_rng(seed), upto,
                                 counter=counter)
    law = per_row_law(M, pi, upto)
    assert len(counts) == 1 and counts[0].shape == law.shape
    assert counts[0].dtype == np.int64
    assert counts[0].sum() == n == counter.count
    assert (counts[0][law == 0.0] == 0).all()
    s, first, steps = _law(M, as_distribution(pi), upto, None)
    assert s == upto and steps == []
    assert np.abs(first - law.ravel()).max() <= 1e-12
    if n >= 2000:
        S, A = reference_sample_trajectories(M, pi, n, np.random.default_rng(seed), upto)
        assert_same_law(np.bincount(S[upto] * M.A + A[upto], minlength=law.size),
                        counts[0])


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40), st.integers(0, 200))
def test_initial_states_match_a_search_of_the_cumulative_rho(seed, n0, n):
    # rho with zero-mass entries, trailing ones included: a search of its
    # cumulative sums draws each state with its share of the mass and never
    # one without mass, and so do the counts
    rng = np.random.default_rng(seed)
    rho = rng.random(n0) * (rng.random(n0) < 0.7)
    rho[int(rng.integers(n0))] += 0.1
    M = LayeredLowRankMDP(2, 1, 1, [list(range(n0)), [n0]],
                          [np.ones((n0, 1, 1))], [np.ones((1, 1))], rho / rho.sum())
    counts = sample_trajectories(M, Policy.uniform(M), n, np.random.default_rng(seed),
                                 upto=0)[0][:, 0]
    assert counts.sum() == n and (counts[M.rho == 0.0] == 0).all()
    assert np.abs(_law(M, as_distribution(Policy.uniform(M)), 0, None)[1]
                  - M.rho / M.rho.sum()).max() <= 1e-15


def rollin_case(shape):
    """A three-component mixture (one of weight 0) with no tail, the tail
    `RepLearnDataset.collect` takes, the tail `psdp` takes, or a tail whose
    step layers are random and one-hot."""
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
        "mixed": (3, Policy(1, [unif[1], random_policy(M, rng, 2, 2).table(2),
                                greedy[3]])),
    }[shape]
    return M, P, upto, tail


def tally(M, S, A, s, upto):
    """Count arrays shaped as the sampler returns them, from episodes."""
    cell = S[s] * M.A + A[s]
    out = [np.bincount(cell, minlength=M.n_states(s) * M.A).reshape(M.n_states(s), M.A)]
    for ell in range(s + 1, upto + 1):
        shape = (M.n_states(s) * M.A, M.n_states(ell), M.A)
        idx = (cell * shape[1] + S[ell]) * M.A + A[ell]
        out.append(np.bincount(idx, minlength=np.prod(shape)).reshape(shape))
    return out


@pytest.mark.parametrize("shape", ["plain", "collect", "psdp", "mixed"])
def test_each_law_equals_the_exact_occupancies(shape):
    # the law at s is the mixture's oracle occupancy times the action rows
    # at s; from each cell (x, a) at s, the law at a later layer is the
    # oracle occupancy of the MDP restarted at x, playing a, then the tail
    M, P, upto, tail = rollin_case(shape)
    s, first, steps = _law(M, P, upto, tail)
    assert s == (tail.lo if tail.tables else upto) and len(steps) == upto - s
    want = sum(w * oracle_occupancy(M, comp, s)[:, None]
               * (tail if tail.tables else comp).table(s) for comp, w in P)
    assert np.abs(first - want.ravel()).max() <= 1e-12
    joint = np.diag(first)
    for i, (trans, rows) in enumerate(steps, 1):
        joint = ((joint @ trans)[:, :, None] * rows[None]).reshape(len(first), -1)
        for c, p in enumerate(first):
            x, a = divmod(c, M.A)
            sub = LayeredLowRankMDP(M.H - s, M.A, M.d, M.layers[s:], M.phi[s:],
                                    M.mu[s:], np.eye(M.n_states(s))[x])
            play = Policy(0, [np.eye(M.A)[np.full(M.n_states(s), a)]]
                          + [tail.table(t) for t in range(s + 1, s + i)])
            want = p * oracle_occupancy(sub, play, i)[:, None] * tail.table(s + i)
            assert np.abs(joint[c] - want.ravel()).max() <= 1e-12


def test_a_warm_memo_gives_each_layer_its_own_law():
    # one mixture rolled in to every layer, down and back up, on one MDP:
    # each law equals the oracle's and, bit for bit, the law on a cold copy
    M, P, _, _ = rollin_case("plain")
    for upto in (3, 2, 1, 0, 1, 2, 3):
        first = _law(M, P, upto, None)[1]
        want = sum(w * oracle_occupancy(M, comp, upto)[:, None] * comp.table(upto)
                   for comp, w in P)
        assert np.abs(first - want.ravel()).max() <= 1e-12
        cold = LayeredLowRankMDP.from_json(M.to_json())
        assert np.array_equal(first, _law(cold, P, upto, None)[1])


def test_the_memo_holds_no_entry_for_a_collected_mdp():
    # the exact evaluators' maxima and density norms go with the MDP too
    gc.collect()
    before = len(simenv._LAWS)
    M = small_env(seed=3, H=4, states=(3, 4, 4, 3))
    sample_trajectories(M, Policy.uniform(M), 10, np.random.default_rng(0))
    reachability_eta(M, 2)
    check_policy_cover(M, Policy.uniform(M), 3, alpha=0.0, eps=0.0)
    assert M in simenv._LAWS and len(simenv._LAWS) == before + 1
    tables = simenv._LAWS[M][0]
    held = [weakref.ref(tables[kind, h]) for kind in ("max", "norm") for h in (2, 3)]
    ref = weakref.ref(M)
    del M, tables
    gc.collect()
    assert ref() is None and len(simenv._LAWS) == before
    assert all(r() is None for r in held)


def fresh_rollins(M, rng, k):
    """Sample 1,100 roll-ins through the last layer on M, each with a fresh
    random policy (k = 1) or a fresh k-component mixture of them; returns
    the last roll-in object and the policies it holds."""
    def fresh():
        return Policy(0, [rng.random((M.n_states(t), M.A)) for t in range(M.H)])
    for _ in range(1100):
        parts = [fresh() for _ in range(k)]
        P = parts[0] if k == 1 else PolicyDistribution(parts, np.full(k, 1.0 / k))
        sample_trajectories(M, P, 100, rng, upto=M.H - 1)
    return P, parts


def test_the_memo_holds_no_entry_for_a_collected_policy():
    # 1,100 roll-ins, each with a fresh random 6-layer policy, leave only
    # the rows of the 5 transitions they read: each policy's compiled law,
    # its state laws and its own action rows die with it
    M = combination_lock(6, 4, 2, 0)
    pi = fresh_rollins(M, np.random.default_rng(0), 1)[0]
    rows, laws = simenv._LAWS[M]
    assert len(rows) == 5 and len(laws) == 1
    assert set(laws[pi]) == {0, 1, 2, 3, 4, 5, (5, None)}
    del pi
    gc.collect()
    assert len(rows) == 5 and len(laws) == 0


def test_the_memo_holds_no_entry_for_a_collected_mixture():
    # the same with fresh 2-component mixtures: the mixture holds only its
    # compiled law, each component only its state laws, and all die with it
    M = combination_lock(6, 4, 2, 0)
    P, parts = fresh_rollins(M, np.random.default_rng(1), 2)
    rows, laws = simenv._LAWS[M]
    assert len(rows) == 5 and len(laws) == 3
    assert set(laws[P]) == {(5, None)}
    assert all(set(laws[pi]) == {0, 1, 2, 3, 4, 5} for pi in parts)
    del P, parts
    gc.collect()
    assert len(rows) == 5 and len(laws) == 0


def state_bytes(rng):
    """The generator's full state, buffered uint32 included, as bytes."""
    return pickle.dumps(rng.bit_generator.state)


@pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.PCG64DXSM,
                                    np.random.MT19937, np.random.Philox,
                                    np.random.SFC64], ids=lambda g: g.__name__)
@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("A", [1, 4])
def test_one_hot_steps_match_a_forced_multinomial(monkeypatch, bitgen, buffered, A):
    # a step whose tail rows are all one-hot skips the multinomial, yet the
    # counts and the generator's state, a buffered uint32 included, equal
    # those of the multinomial at every step; the tail holds one-hot layers,
    # whose hot actions take every action, the last too, and some rows
    # scaled, and a uniform layer, one-hot only when A = 1, whose rows sum
    # to exactly one as one-hot rows do
    M = small_env(seed=5, H=5, A=A, d=2, states=(3, 4, 5, 4, 3))
    rng = np.random.default_rng(6)
    hot = [rng.integers(A, size=M.n_states(t)) for t in range(M.H)]
    assert set(hot[2]) == set(range(A))
    one_hot = [np.eye(A)[acts] * rng.choice([1.0, 2.5], size=(len(acts), 1))
               for acts in hot]
    tail = Policy(1, [np.full((M.n_states(1), A), 1.0 / A), one_hot[2],
                      np.full((M.n_states(3), A), 1.0 / A), one_hot[4]])
    P = PolicyDistribution([random_policy(M, rng), Policy.from_actions(M, hot)],
                           [0.3, 0.7])
    compiled = simenv._compiled
    # each step's hot actions, read off its flat hot index x * A + a
    steps = [(trans, rows, None if flat is None else flat - np.arange(len(flat)) * A)
             for trans, rows, flat, _ in compiled(M, P, 4, tail)[2]]
    assert [h is not None for _, _, h in steps] == [True, A == 1, True]
    assert all(np.array_equal(h, hot[t]) for (_, _, h), t in zip(steps, (2, 3, 4))
               if t != 3)

    def forced(*args):
        s, first, steps = compiled(*args)
        return s, first, [(trans, rows, None, None) for trans, rows, _, _ in steps]

    for n in (1, 1000, 2**62 - 1):
        runs = []
        for law in (compiled, forced):
            monkeypatch.setattr(simenv, "_compiled", law)
            gen = np.random.Generator(bitgen(7))
            if buffered:
                gen.integers(0, 10)
            counts = sample_trajectories(M, P, n, gen, 4, tail)
            runs.append(([c.tobytes() for c in counts], state_bytes(gen)))
        assert runs[0] == runs[1], n


def test_a_repeated_rollin_compiles_nothing_and_a_new_tail_value_compiles_once(
        monkeypatch):
    # the law is compiled once per roll-in object (a Policy by value, a
    # mixture by identity), upto and tail value; later roll-ins only draw
    M, P, upto, tail = rollin_case("psdp")
    built = []
    law = simenv._law

    def counted(M, P, upto, tail):
        built.append(None)
        return law(M, P, upto, tail)

    monkeypatch.setattr(simenv, "_law", counted)
    equal_tail = Policy(tail.lo, [t.copy() for t in tail.tables])
    other_tail = Policy(tail.lo, tail.tables[:-1] + (tail.tables[-1][:, ::-1],))
    pi = P.policies[0]
    rng = np.random.default_rng(0)
    for roll_in, last, tl, want in [
            (P, upto, tail, 1), (P, upto, tail, 1), (P, upto, equal_tail, 1),
            (P, upto, None, 2), (P, upto - 1, None, 3), (P, upto, other_tail, 4),
            (P, upto, other_tail, 4),
            (PolicyDistribution(P.policies, P.weights), upto, tail, 5),
            (pi, upto, tail, 6), (Policy(0, pi.tables), upto, tail, 6)]:
        sample_trajectories(M, roll_in, 50, rng, last, tl)
        assert len(built) == want


def test_a_point_mass_shares_its_policys_compiled_law():
    # a one-policy mixture at weight exactly 1.0 compiles its policy's law bit
    # for bit (0 + 1.0 x = x): a point mass of an equal policy draws the same
    # counts and leaves the generator in the same state
    M, P, upto, tail = rollin_case("psdp")
    pi = P.policies[0]
    twin = PolicyDistribution.point_mass(Policy(0, [t.copy() for t in pi.tables]))
    draws = []
    for roll_in in (pi, twin):
        rng = np.random.default_rng(3)
        draws.append((sample_trajectories(M, roll_in, 1000, rng, upto, tail),
                      rng.bit_generator.state))
    (a, state_a), (b, state_b) = draws
    assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b))
    assert state_a == state_b


@pytest.mark.parametrize("shape", ["plain", "collect", "psdp", "mixed"])
def test_rollin_matches_the_per_component_loop(shape):
    # over 40 seeds of 500 episodes, every count array the sampler returns
    # passes a chi-square test against the frozen per-component loop's
    # tallies of the same episodes
    M, P, upto, tail = rollin_case(shape)
    s = tail.lo if tail.tables else upto
    got, want, counter = None, None, EpisodeCounter()
    for seed in range(40):
        counts = sample_trajectories(M, P, 500, np.random.default_rng(seed), upto,
                                     tail, counter=counter)
        S, A = reference_rollin(M, P, 500, np.random.default_rng(1000 + seed), upto,
                                list(tail.tables))
        ref = tally(M, S, A, s, upto)
        got = counts if got is None else [g + c for g, c in zip(got, counts)]
        want = ref if want is None else [w + r for w, r in zip(want, ref)]
    assert counter.count == 40 * 500
    assert [g.shape for g in got] == [w.shape for w in want]
    assert all(int(g.sum()) == 40 * 500 for g in got)
    for g, w in zip(got, want):
        assert_same_law(w, g)
    # no episodes is an empty roll-in, drawn from nothing; a mean of none
    # is rejected by the estimators
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    counts = sample_trajectories(M, P, 0, rng, upto, tail, counter=counter)
    assert [c.shape for c in counts] == [g.shape for g in got]
    assert not any(c.any() for c in counts)
    assert rng.bit_generator.state == before and counter.count == 40 * 500
    F = np.ones((M.n_states(upto), M.A, 1, 1))
    for est in (est_vec, est_mat):
        with pytest.raises(VoxlabError, match="n must be >= 1"):
            est(M, upto, F, P, 0, rng, counter=counter)
    assert rng.bit_generator.state == before and counter.count == 40 * 500


@pytest.mark.parametrize("weights", [(0.5, 0.5), (1.0, 0.0)])
@pytest.mark.parametrize("bad", ["misshaped", "short", "misshaped_tail",
                                 "tail_range"])
def test_every_component_and_the_tail_are_checked_before_any_draw(bad, weights):
    # the second component, misshaped or not covering the roll-in layers,
    # raises whatever its weight, before and after the good one's laws are
    # memoised
    M = small_env(seed=3, H=4, states=(3, 4, 4, 3))
    rng = np.random.default_rng(8)
    good = random_policy(M, rng)
    tabs = list(random_policy(M, rng).tables)
    tail = good_tail = Policy(2, [np.full((M.n_states(t), M.A), 1.0 / M.A)
                                  for t in (2, 3)])
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
    counter = EpisodeCounter()
    before = rng.bit_generator.state
    for warm in (False, True):
        if warm:
            for t in (good_tail, None):
                sample_trajectories(M, good, 100, np.random.default_rng(0),
                                    M.H - 1, t)
        with pytest.raises(error, match=match):
            sample_trajectories(M, P, 100, rng, M.H - 1, tail, counter=counter)
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


def frozen_max_occupancies(M, h):
    """The backward max-occupancy DP without a memo: the reference that
    pins `max_occupancies` bit for bit."""
    reach = np.eye(M.n_states(h))
    for t in range(h - 1, -1, -1):
        T = M.transition_matrix(t)
        reach = np.einsum("xay,yk->xak", T, reach).max(axis=1)
    return M.rho @ reach


@pytest.mark.parametrize("make", [
    lambda: combination_lock(6, 4, 2, 7001),
    lambda: small_env(seed=5, H=5, A=3, d=3, states=(3, 4, 2, 5, 4), rotate=True),
], ids=["lock", "rotated"])
def test_memoised_max_occupancies_equal_the_dp_in_any_layer_order(make):
    # every layer twice, in shuffled order, on one MDP
    M = make()
    for h in np.random.default_rng(0).permutation(M.H).tolist() * 2:
        assert np.array_equal(max_occupancies(M, h), frozen_max_occupancies(M, h))


def test_max_occupancies_hand_out_a_fresh_array_and_check_every_budget():
    M = small_env(seed=2, H=4, states=(3, 4, 4, 3))
    first = max_occupancies(M, 3)
    want = first.copy()
    first[:] = -1.0
    again = max_occupancies(M, 3)
    assert np.array_equal(again, want) and again.flags.writeable
    with pytest.raises(BudgetError, match="budget"):
        max_occupancies(M, 3, budget=1)
    assert np.array_equal(max_occupancies(M, 3), want)


# ------------------------------------------------------------ feature class


@pytest.mark.parametrize("kind, n_decoys, true_index, digest", [
    ("lock", 2, 0, "be7624d8f4c7253df00eb13a9d40794caaefb6438ed586bc42667087d0dd9fa1"),
    ("lock", 2, 2, "6a1fd9ad2e3d95d4b29aaf31422c94c8841d6515e3eef5e580a1202e6863a61f"),
    ("lock", 5, 0, "68046a5356f458464751a00c99195d37e92d76ed44bef74b2a32b42c88294492"),
    ("lock", 5, 2, "69642fd8e2cc1f4800bdbc1a0f303acf9a748c001bb5eb5631111b890ea1ab49"),
    ("c07", 2, 0, "f2ce4752754884c1761c2c2d20142b9493e2c7a4ecc4b7a842cd9161285a65a6"),
    ("c07", 2, 2, "b9767edca799ba18b06499eb5de4f619b30a9d2aa2989bfd640e64422150f863"),
    ("c07", 5, 0, "e05f1aaad59c24da815cdbef08bab83806fc8c69a4f3b4076d2532ed04082012"),
    ("c07", 5, 2, "aee10c1c40b7d5310fef2438d3a46bfc88b249e1cec2ae527604cd69a2d56f85"),
])
def test_feature_class_tables_are_pinned(kind, n_decoys, true_index, digest):
    # the SHA-256 of every layer's candidate stack, one after the other
    M = (combination_lock(6, 4, 2, 7001) if kind == "lock" else
         small_env(seed=7012, H=4, A=2, d=2, states=(4, 5, 5, 5), boost=0.5))
    Phi = make_feature_class(M, n_decoys, np.random.default_rng(31), true_index)
    h = hashlib.sha256()
    for t in range(M.H - 1):
        h.update(Phi.tables_at(t).tobytes())
    assert h.hexdigest() == digest


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feature_class_rejects_a_non_finite_table_naming_candidate_and_layer(env, bad):
    # one NaN would make every gap of its candidate NaN, so the search
    # would silently never weigh it
    cands = [[np.array(t) for t in env.phi] for _ in range(3)]
    cands[2][1][0, 1, 0] = bad
    with pytest.raises(VoxlabError, match=r"candidate 2 .* layer-1 table"):
        FeatureClass(cands)
    cands[2][1][0, 1, 0] = 0.0
    FeatureClass(cands)
