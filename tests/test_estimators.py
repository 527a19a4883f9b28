"""Monte-Carlo moment estimators: exactness, PSD handling, concentration."""

import numpy as np
import pytest

from voxlab import EpisodeCounter, Policy, PolicyDistribution, VoxlabError
from voxlab.estimators import est_mat, est_vec, visit_counts
from voxlab.simenv import exact_feature_expectation, exact_second_moment

from conftest import small_env, uniform_mixture


def det_env(seed=0):
    # single state per layer: every trajectory is the same, estimators exact
    return small_env(seed=seed, H=3, A=2, d=2, states=(1, 1, 1))


def test_constant_functional_is_exact(env):
    pi = Policy.uniform(env)
    v = np.array([1.5, -2.0, 0.25])
    F = np.tile(v, (env.n_states(1), env.A, 1))
    got = est_vec(env, 1, F, pi, 40, np.random.default_rng(0))
    assert np.allclose(got, v, atol=1e-12)


def test_deterministic_env_single_episode_exact():
    M = det_env()
    pi = Policy.from_actions(M, [0, 1, 0])
    F = np.arange(M.n_states(2) * M.A * 2, dtype=float).reshape(M.n_states(2), M.A, 2)
    got = est_vec(M, 2, F, pi, 1, np.random.default_rng(1))
    want = exact_feature_expectation(M, pi, F, 2)
    assert np.allclose(got, want, atol=1e-12)


def test_est_mat_single_episode_is_rank_one(env):
    phi = env.phi[1]
    F = np.einsum("xad,xae->xade", phi, phi)
    got = est_mat(env, 1, F, Policy.uniform(env), 1, np.random.default_rng(4))
    assert np.allclose(got, got.T)
    vals = np.linalg.eigvalsh(got)
    assert vals.min() >= -1e-12
    assert (vals > 1e-10).sum() == 1  # one episode, one outer product


def test_est_mat_symmetric_psd_and_matches_mean(env):
    phi = env.phi[1]
    F = np.einsum("xad,xae->xade", phi, phi)
    pi = Policy.uniform(env)
    got = est_mat(env, 1, F, pi, 50_000, np.random.default_rng(5))
    want = exact_second_moment(env, pi, phi, 1)
    assert np.allclose(got, got.T)
    assert np.linalg.eigvalsh(got).min() >= -1e-12
    assert np.abs(got - want).max() < 0.02


def test_est_mat_rejects_non_psd_and_non_square(env):
    F_bad = np.zeros((env.n_states(1), env.A, 2, 2))
    F_bad[:, :, 0, 1] = 1.0
    F_bad[:, :, 1, 0] = -1.0
    F_bad[:, :, 0, 0] = -1.0  # symmetrized matrix has a negative eigenvalue
    with pytest.raises(VoxlabError):
        est_mat(env, 1, F_bad, Policy.uniform(env), 10, np.random.default_rng(6))
    with pytest.raises(VoxlabError):
        est_mat(env, 1, np.zeros((env.n_states(1), env.A, 2)),
                Policy.uniform(env), 10, np.random.default_rng(7))


def test_estimators_validate_inputs(env):
    pi = Policy.uniform(env)
    with pytest.raises(VoxlabError):
        est_vec(env, 1, np.zeros((1, 1, 2)), pi, 10, np.random.default_rng(8))
    with pytest.raises(VoxlabError):
        est_vec(env, 1, env.phi[1], pi, 0, np.random.default_rng(9))


def test_episode_counter_threads_through(env):
    counter = EpisodeCounter()
    pi = Policy.uniform(env)
    est_vec(env, 1, env.phi[1], pi, 123, np.random.default_rng(10), counter=counter)
    est_mat(env, 1, np.einsum("xad,xae->xade", env.phi[1], env.phi[1]), pi, 77,
            np.random.default_rng(11), counter=counter)
    assert counter.count == 200


def test_seed_determinism(env):
    pi = Policy.uniform(env)
    a = est_vec(env, 2, env.phi[1] if env.H == 2 else np.ones((env.n_states(2), env.A, 1)),
                pi, 300, np.random.default_rng(12))
    b = est_vec(env, 2, np.ones((env.n_states(2), env.A, 1)), pi, 300,
                np.random.default_rng(12))
    assert np.array_equal(a, b)


def test_mixture_estimates_mixture_mean(env):
    a = Policy.from_actions(env, [0, 0, 0])
    b = Policy.from_actions(env, [1, 1, 1])
    P = uniform_mixture([a, b])
    F = np.random.default_rng(13).random((env.n_states(2), env.A, 2))
    got = est_vec(env, 2, F, P, 40_000, np.random.default_rng(14))
    want = 0.5 * exact_feature_expectation(env, a, F, 2) + \
        0.5 * exact_feature_expectation(env, b, F, 2)
    assert np.abs(got - want).max() < 0.02


def test_visit_counts_sum_to_n(env):
    counts = visit_counts(env, 1, Policy.uniform(env), 500, np.random.default_rng(15))
    assert counts.sum() == 500
    assert counts.min() >= 0


def test_concentration_rate():
    # |est - exact| <= 3 c sqrt(log(2/delta) / n) with c = max|F|, checked
    # across 300 independent estimates at delta = 0.01: at least 99% inside
    M = small_env(seed=21, H=3, A=2, d=2, states=(3, 4, 4))
    pi = Policy.uniform(M)
    rng = np.random.default_rng(16)
    F = rng.random((M.n_states(2), M.A, 2)) * 2.0 - 1.0
    want = exact_feature_expectation(M, pi, F, 2)
    c = float(np.abs(F).max())
    n, delta = 400, 0.01
    bound = 3.0 * c * np.sqrt(np.log(2.0 / delta) / n)
    hits = 0
    trials = 300
    for _ in range(trials):
        got = est_vec(M, 2, F, pi, n, rng)
        if np.linalg.norm(got - want) <= bound:
            hits += 1
    assert hits / trials >= 0.99
