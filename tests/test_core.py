"""Domain types: policies, mixtures, composition, validation, serialization."""

import hashlib
import itertools
import json
import re

import numpy as np
import pytest

from voxlab import (
    Discriminator,
    FeatureClass,
    LayerRangeError,
    LayeredLowRankMDP,
    Policy,
    PolicyDistribution,
    VoxlabError,
    compose_policies,
    validate_mdp,
)
from voxlab.simenv import combination_lock, exact_occupancy

from conftest import small_env
from oracles import enum_paths_occupancy, chi2_uniformity_pvalue


# ---------------------------------------------------------------- policies


def test_policy_table_lookup_and_range(env):
    pi = Policy.uniform(env, lo=0, hi=env.H - 1)
    assert pi.lo == 0 and pi.hi == env.H - 1
    for h in range(env.H):
        tab = pi.table(h)
        assert tab.shape == (env.n_states(h), env.A)
        assert np.allclose(tab.sum(axis=1), 1.0)
    with pytest.raises(LayerRangeError):
        pi.table(env.H)


def test_policy_rejects_bad_tables(env):
    with pytest.raises(VoxlabError):
        Policy(0, [np.ones(3)])  # not 2-d
    pi = Policy(1, [np.ones((env.n_states(1), env.A)) / env.A])
    assert pi.lo == 1 and pi.hi == 1
    assert pi.action_key() == pi.action_key()


def test_policies_compare_and_hash_by_value(env):
    tabs = [np.full((env.n_states(t), env.A), 1.0 / env.A) for t in range(2)]
    a, b = Policy(0, tabs), Policy(0, [t.copy() for t in tabs])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Policy(1, tabs)  # same tables from another layer on
    assert a != Policy(0, [t.reshape(1, -1) for t in tabs])  # same bytes
    assert a != Policy(0, tabs[:1]) and a != Policy.from_actions(env, [0, 0])
    assert a != tabs and Policy.empty(2) == Policy.empty(2) != Policy.empty(3)
    # a dict keyed by policies merges equal ones into the first key
    merged = {}
    for pi in (a, Policy(1, tabs), b):
        merged[pi] = merged.get(pi, 0) + 1
    assert list(merged.values()) == [2, 1] and next(iter(merged)) is a


def test_every_exported_name_resolves():
    import voxlab

    namespace = {}
    exec("from voxlab import *", namespace)
    assert all(name in namespace for name in voxlab.__all__)
    assert len(set(voxlab.__all__)) == len(voxlab.__all__)
    assert {"linear_reward", "quadratic_reward"} <= set(voxlab.__all__)


def test_freezing_copies_writeable_inputs_and_shares_frozen_ones(env):
    t = np.full((2, 2), 0.5)
    pi = Policy(0, [t])
    assert t.flags.writeable  # the caller's array is left as it was
    assert pi.tables[0] is not t and not pi.tables[0].flags.writeable
    t[0, 0] = 1.0
    assert pi.tables[0][0, 0] == 0.5
    # a read-only float64 C-contiguous table that owns its data is shared
    assert Policy(0, [pi.tables[0]]).tables[0] is pi.tables[0]
    # read-only but a view, not C-contiguous or not float64: copied
    for odd in (t[:], np.asfortranarray(np.eye(3)), np.eye(3, dtype=np.float32)):
        odd.setflags(write=False)
        got = Policy(0, [odd]).tables[0]
        assert got is not odd and got.dtype == np.float64
        assert got.flags.c_contiguous and np.array_equal(got, odd)
    phi = [p.copy() for p in env.phi]
    M = LayeredLowRankMDP(env.H, env.A, env.d, env.layers, phi, env.mu, env.rho)
    assert all(p.flags.writeable for p in phi)
    assert M.phi[0] is not phi[0] and not M.phi[0].flags.writeable
    phi[0][:] = 0.0
    assert np.array_equal(M.phi[0], env.phi[0])
    assert M.mu[0] is env.mu[0]  # env's tables are already frozen


def test_from_actions_matches_manual_tables(env):
    actions = [0] * env.H
    pi = Policy.from_actions(env, actions)
    for h in range(env.H):
        tab = pi.table(h)
        assert np.array_equal(tab[:, 0], np.ones(env.n_states(h)))
        assert np.array_equal(tab[:, 1:], np.zeros((env.n_states(h), env.A - 1)))


def test_covers_predicate(env):
    pi = Policy.uniform(env, lo=0, hi=1)
    assert pi.covers(0, 1)
    assert pi.covers(1, 1)
    assert not pi.covers(0, 2)
    assert not Policy.empty(3).covers(3, 3)  # empty policies cover nothing


# ------------------------------------------------------------- composition


def test_compose_empty_is_identity(env):
    pi = Policy.uniform(env, lo=0, hi=1)
    assert compose_policies(Policy.empty(0), pi) is pi
    assert compose_policies(pi, Policy.empty(2)) is pi


def test_compose_concatenates_tables(env):
    a = Policy.from_actions(env, [0], lo=0)
    b = Policy.from_actions(env, [1, 0], lo=1)
    joined = compose_policies(a, b)
    assert joined.lo == 0 and joined.hi == 2
    assert np.array_equal(joined.table(0), a.table(0))
    assert np.array_equal(joined.table(1), b.table(1))
    assert np.array_equal(joined.table(2), b.table(2))


def test_compose_rejects_gap_and_overlap(env):
    a = Policy.from_actions(env, [0], lo=0)
    with pytest.raises(LayerRangeError):
        compose_policies(a, Policy.from_actions(env, [1], lo=2))  # gap at layer 1
    with pytest.raises(LayerRangeError):
        compose_policies(a, Policy.from_actions(env, [1, 1], lo=0))  # overlap


def test_compose_is_associative():
    M = small_env(seed=3, H=4, A=2, d=2, states=(3, 3, 3, 3))
    a = Policy.from_actions(M, [0], lo=0)
    b = Policy.from_actions(M, [1], lo=1)
    c = Policy.from_actions(M, [0, 1], lo=2)
    left = compose_policies(compose_policies(a, b), c)
    right = compose_policies(a, compose_policies(b, c))
    assert left.lo == right.lo and left.hi == right.hi
    for h in range(4):
        assert np.array_equal(left.table(h), right.table(h))


def test_composed_policy_occupancy_matches_path_enumeration():
    # prefix chooses action 0, suffix action 1: the composite's layer-2
    # occupancy must equal brute-force path enumeration under the same plays
    M = small_env(seed=11, H=3, A=2, d=2, states=(3, 4, 4))
    pi = compose_policies(
        Policy.from_actions(M, [0], lo=0), Policy.from_actions(M, [1, 1], lo=1)
    )
    occ = exact_occupancy(M, pi, 2)
    brute = enum_paths_occupancy(M, pi, 2)
    assert np.allclose(occ, brute, atol=1e-12)


# ---------------------------------------------------------------- mixtures


def test_distribution_validation(env):
    pi = Policy.uniform(env)
    with pytest.raises(VoxlabError):
        PolicyDistribution([], [])
    with pytest.raises(VoxlabError):
        PolicyDistribution([pi], [0.5])  # does not sum to 1
    with pytest.raises(VoxlabError):
        PolicyDistribution([pi, pi], [1.5, -0.5])  # negative weight
    nan = float("nan")
    for weights in ([nan], [nan, 1.0], [0.5, nan], [float("inf"), -float("inf")]):
        with pytest.raises(VoxlabError):
            PolicyDistribution([pi] * len(weights), weights)
    P = PolicyDistribution([pi, pi], [0.25, 0.75])
    assert len(P) == 2
    assert np.allclose(sorted(w for _, w in P), [0.25, 0.75])
    with pytest.raises(VoxlabError, match="one weight per policy required"):
        PolicyDistribution([pi], [0.5, 0.5])


def test_feature_class_and_discriminator_reject_bad_inputs(env):
    with pytest.raises(VoxlabError, match="feature class must be nonempty"):
        FeatureClass([])
    with pytest.raises(VoxlabError, match="all candidate maps must share table shapes"):
        FeatureClass([list(env.phi), [tab[:1] for tab in env.phi]])
    with pytest.raises(VoxlabError, match=r"discriminator direction has norm 1\.41\d* > 1"):
        Discriminator([1.0, 1.0], 0)


# -------------------------------------------------------------- validation


def test_generator_output_validates_clean(env):
    assert validate_mdp(env) == []


def test_validate_flags_negative_transition(env):
    mu = [m.copy() for m in env.mu]
    mu[0] = mu[0].copy()
    mu[0][0] = -mu[0][0] - 0.5  # force a negative density somewhere
    M = LayeredLowRankMDP(env.H, env.A, env.d, env.layers, env.phi, mu, env.rho)
    report = validate_mdp(M)
    assert any("negative transition density" in line for line in report)


def test_validate_flags_feature_norm(env):
    phi = [p.copy() for p in env.phi]
    phi[0] = 2.0 * phi[0]
    mu = [m.copy() for m in env.mu]
    mu[0] = 0.5 * mu[0]  # keep rows stochastic so only the norm trips
    M = LayeredLowRankMDP(env.H, env.A, env.d, env.layers, phi, mu, env.rho)
    report = validate_mdp(M)
    assert any("phi norm bound violated" in line for line in report)


def test_validate_flags_row_sum_and_rho(env):
    mu = [m.copy() for m in env.mu]
    mu[0] = 0.5 * mu[0]
    M = LayeredLowRankMDP(env.H, env.A, env.d, env.layers, env.phi, mu, env.rho)
    assert any("row sum off" in line for line in validate_mdp(M))
    rho = env.rho.copy()
    rho = rho / 2.0
    M2 = LayeredLowRankMDP(env.H, env.A, env.d, env.layers, env.phi, env.mu, rho)
    assert any("rho sums to" in line for line in validate_mdp(M2))


def test_validate_names_a_negative_rho_entry_alone(env):
    # the entries still sum to 1, so only the sign check can see it
    rho = np.zeros(env.n_states(0))
    rho[:2] = [1.5, -0.5]
    M = LayeredLowRankMDP(env.H, env.A, env.d, env.layers, env.phi, env.mu, rho)
    assert validate_mdp(M) == ["rho has a negative entry"]


def test_validate_names_each_state_id_found_twice_and_both_layers(env):
    # state ids are global: one id in two layers, or twice in one, is one line
    layers = [list(ids) for ids in env.layers]
    layers[2][1] = layers[0][0]
    layers[1][1] = layers[1][0]
    M = LayeredLowRankMDP(env.H, env.A, env.d, layers, env.phi, env.mu, env.rho)
    assert validate_mdp(M) == [
        f"state id {layers[1][0]} is in layer 1 and layer 1",
        f"state id {layers[0][0]} is in layer 0 and layer 2",
    ]


def test_validate_names_only_the_layer_whose_mu_mass_exceeds_one():
    # next-layer widths 4 and 5; layer 1's mu tripled with two rows negated.
    # The report's text is pinned by its SHA-256, its last two lines
    # literally.
    M = small_env(seed=4, H=3, states=(3, 4, 5))
    signs = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    mu = [M.mu[0], 3.0 * signs[:, None] * M.mu[1]]
    bad = LayeredLowRankMDP(M.H, M.A, M.d, M.layers, M.phi, mu, M.rho)
    report = validate_mdp(bad)
    assert [line for line in report if line.startswith("mu ")] == [
        "mu coordinate l1 mass exceeds 1 at (h=1, i=0): 3",
        "mu coordinate l1 mass exceeds 1 at (h=1, i=1): 3",
    ]
    digest = hashlib.sha256("\n".join(report).encode()).hexdigest()
    assert len(report) == 26
    assert digest == "262f77699f4cb8dfb4b8d95f54034850ed7a861192f542dc101bdafa177398a9"
    assert validate_mdp(M) == []


def _largest_aggregate_norm(mu):
    """max || sum_x g(x) mu(x) || over every g: X -> {0, 1}, which is the
    maximum over every g: X -> [0, 1], since the norm is convex in g."""
    n = len(mu)
    g = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    return float(np.linalg.norm(g @ mu, axis=1).max())


def test_the_l1_bound_implies_the_aggregate_norm_bound():
    # exhaustively over all 2^n binary g, on the mu tables of accepted
    # generated environments and locks and on random signed tables whose
    # columns have l1 mass 1
    tables = []
    for d, boost, rotate, seed in itertools.product((1, 2, 3, 5), (0.0, 0.5),
                                                    (False, True), range(3)):
        M = small_env(seed=seed, H=3, d=d, states=(3, 6, 9), boost=boost,
                      rotate=rotate)
        assert validate_mdp(M) == []
        tables += M.mu
    for obs, seed in itertools.product(range(1, 6), range(2)):
        M = combination_lock(6, 4, obs, seed)
        assert validate_mdp(M) == []
        tables += M.mu
    rng = np.random.default_rng(0)
    for n, d in itertools.product(range(1, 11), (1, 2, 3, 5, 8)):
        mu = rng.standard_normal((n, d))
        tables.append(mu / np.abs(mu).sum(axis=0))
    for mu in tables:
        assert _largest_aggregate_norm(mu) <= np.sqrt(mu.shape[1]) * (1 + 1e-12)


def test_the_l1_check_rejects_what_the_sampled_norm_passed():
    # column 0 has l1 mass 1.2, yet every aggregate norm stays below sqrt(2)
    mu = np.array([[0.6, 0.25], [0.5, 0.25], [-0.1, 0.0]])
    assert 1.2 < _largest_aggregate_norm(mu) < 1.21 < np.sqrt(2)
    M = LayeredLowRankMDP(2, 1, 2, [[0], [1, 2, 3]], [[[[1.0, 0.0]]]], [mu], [1.0])
    assert [line for line in validate_mdp(M) if line.startswith("mu ")] == [
        "mu coordinate l1 mass exceeds 1 at (h=0, i=0): 1.2",
    ]


def test_constructor_names_the_misshaped_part(env):
    def build(layers=env.layers, mu=env.mu, rho=env.rho):
        return LayeredLowRankMDP(env.H, env.A, env.d, layers, env.phi, mu, rho)

    want = (env.n_states(1), env.d)
    for kwargs, message in [
            ({"layers": env.layers[:-1]}, f"expected {env.H} layers, got {env.H - 1}"),
            ({"mu": [env.mu[0][:-1], *env.mu[1:]]},
             f"mu[0] has shape {(want[0] - 1, env.d)}, want {want}"),
            ({"rho": env.rho[:-1]},
             f"rho has shape ({env.n_states(0) - 1},), want ({env.n_states(0)},)")]:
        with pytest.raises(VoxlabError, match=re.escape(message)):
            build(**kwargs)


def test_constructor_shape_errors(env):
    with pytest.raises(VoxlabError):
        LayeredLowRankMDP(1, env.A, env.d, env.layers[:1], [], [], env.rho)
    with pytest.raises(VoxlabError):
        LayeredLowRankMDP(
            env.H, env.A, env.d, env.layers, env.phi[:-1], env.mu, env.rho
        )
    with pytest.raises(VoxlabError):
        LayeredLowRankMDP(
            env.H, env.A, env.d + 1, env.layers, env.phi, env.mu, env.rho
        )


def test_transition_rows_are_distributions(env):
    for h in range(env.H - 1):
        T = env.transition_matrix(h)
        assert T.min() >= -1e-12
        assert np.allclose(T.sum(axis=2), 1.0, atol=1e-9)
    with pytest.raises(LayerRangeError):
        env.transition_matrix(env.H - 1)


def test_sampled_transitions_match_matrix(env):
    # chi-square goodness of fit of simulated next-state draws against the
    # dense transition row, n = 100000 draws from a fixed (h, x, a) cell
    T = env.transition_matrix(0)
    row = T[0, 0]
    rng = np.random.default_rng(5)
    draws = rng.choice(len(row), size=100_000, p=row)
    counts = np.bincount(draws, minlength=len(row))
    expected = row * 100_000
    keep = expected > 0
    chi2 = float(((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum())
    # chi-square survival at df = keep-1 via regularized gamma (scipy)
    from scipy.stats import chi2 as chi2_dist

    p = float(chi2_dist.sf(chi2, df=int(keep.sum()) - 1))
    assert p > 0.001


# ----------------------------------------------------------- serialization


def test_json_roundtrip_byte_identical(env):
    text = env.to_json()
    M2 = LayeredLowRankMDP.from_json(text)
    assert M2.to_json() == text
    assert M2.H == env.H and M2.A == env.A and M2.d == env.d
    for h in range(env.H - 1):
        assert np.array_equal(M2.phi[h], env.phi[h])
        assert np.array_equal(M2.mu[h], env.mu[h])
    assert np.array_equal(M2.rho, env.rho)


def test_json_schema_fields(env):
    payload = json.loads(env.to_json())
    assert set(payload) == {"H", "A", "d", "layers", "phi", "mu", "rho"}
    assert payload["H"] == env.H


def test_chi2_helper_sane():
    # oracle helper sanity: uniform counts give a large p, skewed a tiny one
    assert chi2_uniformity_pvalue(np.full(4, 2500)) > 0.5
    assert chi2_uniformity_pvalue(np.array([9000, 400, 300, 300])) < 1e-6
