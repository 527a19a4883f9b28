"""The infinite-sample limit as an exact oracle for the sampled components.

The sampler draws its counts from their exact multinomial law, so a draw of
n = 2**62 - 1 episodes costs what a small one costs, and its averages lie
within about 1e-9 of their expectations.  Each sampled component is checked
here against its exact counterpart at that n, on the combination lock and on
a c07-family environment, at every layer, under uniform play and under a
(0.3, 0.7) mixture of uniform play and a deterministic policy.

The sampler's integer counts sum to n exactly, and so does
``RepLearnDataset.n``, which is summed before the counts are cast to float;
a dataset's float counts sum to n only within rounding.

The limit itself is checked through `conftest.Expected`, a generator whose
multinomial returns its mean, so the sampler hands every phase its expected
counts.  Each sampled component must then equal its exact counterpart to
1e-12, and c11's explorers must read their covers' exact alphas.
"""

import importlib

import numpy as np
import pytest

from voxlab import FeatureClass, Policy, PolicyDistribution
from voxlab.drivers import SpanrlSchedule, VoxSchedule, run_spanrl, run_vox
from voxlab.estimators import est_mat, est_vec
from voxlab.evalcover import check_policy_cover
from voxlab.psdp import linear_reward, psdp
from voxlab.replearn import RepLearnConfig, RepLearnDataset
from voxlab.simenv import (
    combination_lock,
    exact_feature_expectation,
    exact_q_tables,
    exact_second_moment,
    make_feature_class,
    reachability_eta,
    sample_trajectories,
)

from conftest import Expected, small_env

N = 2**62 - 1


def environments():
    return [combination_lock(6, 4, 2, 0),
            small_env(seed=7010, H=4, A=2, d=2, states=(4, 5, 5, 5), boost=0.5)]


def play(M, kind):
    """Uniform play as a Policy, or the (0.3, 0.7) mixture of uniform play
    and a fixed deterministic policy, with the mixture's (policy, weight)
    pairs for the exact side."""
    uniform = Policy.uniform(M)
    if kind == "uniform":
        return uniform, [(uniform, 1.0)]
    rng = np.random.default_rng(M.H)
    det = Policy.from_actions(M, [rng.integers(M.A, size=M.n_states(t))
                                  for t in range(M.H)])
    return PolicyDistribution([uniform, det], [0.3, 0.7]), [(uniform, 0.3), (det, 0.7)]


def unit_features(M, h, d, seed):
    """A fixed (|X_h|, A, d) feature table whose rows have norm at most 1."""
    feat = np.random.default_rng(seed).standard_normal((M.n_states(h), M.A, d))
    return feat / np.maximum(np.linalg.norm(feat, axis=2, keepdims=True), 1.0)


@pytest.mark.parametrize("kind", ["uniform", "mixture"])
def test_est_vec_and_est_mat_meet_the_exact_moments(kind):
    for M in environments():
        P, parts = play(M, kind)
        for h in range(M.H):
            feat = unit_features(M, h, 3, seed=h)
            counts = sample_trajectories(M, P, N, np.random.default_rng(h), upto=h)[0]
            assert int(counts.sum()) == N
            vec = est_vec(M, h, feat, P, N, np.random.default_rng(h))
            want = sum(w * exact_feature_expectation(M, pi, feat, h) for pi, w in parts)
            assert np.abs(vec - want).max() <= 1e-9, (M.H, h)
            outer = feat[..., :, None] * feat[..., None, :]
            mat = est_mat(M, h, outer, P, N, np.random.default_rng(100 + h))
            want = sum(w * exact_second_moment(M, pi, feat, h) for pi, w in parts)
            assert np.abs(mat - want).max() <= 1e-9, (M.H, h)


@pytest.mark.parametrize("kind", ["uniform", "mixture"])
def test_replearn_targets_meet_the_exact_conditional_means(kind):
    # the cell-mean targets of next-state values F are T[x, a] @ F at every
    # observed cell, and the dataset holds all N episodes
    for M in environments():
        P, _ = play(M, kind)
        for h in range(M.H - 1):
            data = RepLearnDataset.collect(M, h, P, N, np.random.default_rng(h))
            assert data.n == N
            assert data.counts.sum() == pytest.approx(N, rel=1e-15)
            F = np.random.default_rng(h).random((3, M.n_states(h + 1)))
            Y, _ = data.targets(F)
            xs, acts = np.nonzero(data.pair_counts > 0)
            want = M.transition_matrix(h)[xs, acts] @ F.T
            assert np.abs(Y - want.T).max() <= 1e-7, (M.H, h)


def test_psdp_returns_a_policy_greedy_on_its_own_exact_q_tables():
    # with the true features, a radius of 100, uniform covers and a random
    # linear reward on every feature layer, the Q-functions are realizable
    # and PSDP's fits at N episodes per layer are exact to about 1e-9, so
    # the returned policy loses nothing against one greedy step on its own
    # exact Q tables at any state of any layer: it is optimal.  Its greedy
    # tails are one-hot, so the sampler's one-hot steps carry counts of
    # order N here
    envs = [combination_lock(H, 4, 2, seed) for H, seed in ((6, 0), (6, 1), (5, 2),
                                                            (4, 3))]
    envs += [small_env(seed=7010 + i, H=4, A=2, d=2, states=(4, 5, 5, 5), boost=0.5)
             for i in range(4)]
    for i, M in enumerate(envs):
        rng = np.random.default_rng(i)
        h = M.H - 2
        rewards = [linear_reward(rng.standard_normal(M.d), M.phi[t])
                   for t in range(h + 1)]
        pi = psdp(M, h, rewards, FeatureClass([M.phi]), 100.0,
                  [Policy.uniform(M)] * (h + 1), N, rng)
        for t, q in enumerate(exact_q_tables(M, pi, rewards)):
            gap = q.max(axis=1) - (pi.table(t) * q).sum(axis=1)
            assert gap.max() <= 1e-6, (i, t, gap.max())


# ------------------------------------------------------- population limit


@pytest.mark.parametrize("kind", ["uniform", "mixture"])
def test_in_the_limit_est_vec_and_est_mat_are_the_exact_moments(kind):
    for M in environments():
        P, parts = play(M, kind)
        for h in range(M.H):
            feat = unit_features(M, h, 3, seed=h)
            vec = est_vec(M, h, feat, P, 6000, Expected(np.random.default_rng(h)))
            want = sum(w * exact_feature_expectation(M, pi, feat, h) for pi, w in parts)
            assert np.abs(vec - want).max() <= 1e-12, (M.H, h)
            outer = feat[..., :, None] * feat[..., None, :]
            mat = est_mat(M, h, outer, P, 6000, Expected(np.random.default_rng(h)))
            want = sum(w * exact_second_moment(M, pi, feat, h) for pi, w in parts)
            assert np.abs(mat - want).max() <= 1e-12, (M.H, h)


@pytest.mark.parametrize("kind", ["uniform", "mixture"])
def test_in_the_limit_replearn_targets_are_the_exact_conditional_means(kind):
    for M in environments():
        P, _ = play(M, kind)
        for h in range(M.H - 1):
            data = RepLearnDataset.collect(M, h, P, 6000,
                                           Expected(np.random.default_rng(h)))
            assert data.n == 6000
            F = np.random.default_rng(h).random((3, M.n_states(h + 1)))
            Y, _ = data.targets(F)
            xs, acts = np.nonzero(data.pair_counts > 0)
            want = M.transition_matrix(h)[xs, acts] @ F.T
            assert np.abs(Y - want.T).max() <= 1e-12, (M.H, h)


def test_in_the_limit_psdp_cell_means_are_the_exact_q_tables(monkeypatch):
    # every layer's regression targets, the cell means of the returns, are
    # the exact Q table of that layer under the greedy suffix psdp built
    # above it, at every observed cell
    psdp_module = importlib.import_module("voxlab.psdp")
    fit = psdp_module.fit_value_class
    means = []

    def recording_fit(Phi, t, cells, sums, radius):
        ys = np.asarray(sums, dtype=float).ravel()[cells.index] / cells.counts
        means.append((t, cells.index, ys))
        return fit(Phi, t, cells, sums, radius)

    monkeypatch.setattr(psdp_module, "fit_value_class", recording_fit)
    for i, M in enumerate(environments()):
        for kind in ("uniform", "mixture"):
            P, _ = play(M, kind)
            rng = np.random.default_rng(i)
            h = M.H - 2
            rewards = [rng.random((M.n_states(t), M.A)) for t in range(h + 1)]
            means.clear()
            pi = psdp(M, h, rewards, FeatureClass([M.phi]), 1.0, [P] * (h + 1),
                      6000, Expected(rng))
            q = exact_q_tables(M, pi, rewards)
            assert [t for t, _, _ in means] == list(range(h - 1, -1, -1))
            for t, index, ys in means:
                assert np.abs(ys - q[t].ravel()[index]).max() <= 1e-12, (i, kind, t)


def test_in_the_limit_c11_covers_read_their_exact_alphas():
    # c11's locks, feature classes (true map at index 2), schedules and
    # seeds: VoX's covers reach the open latent's 1/(2A) in expectation mode
    # and SpanRL's 1/A in max mode, at every layer 2..5
    replearn = RepLearnConfig(restarts=4, grad_steps=30)
    vox = VoxSchedule(K=4, gamma=1e-3, n_replearn=6000, n_estmat=12000,
                      n_psdp=8000, fw_max_iters=60, replearn=replearn)
    spanrl = SpanrlSchedule(n_replearn=6000, n_estvec=6000, n_psdp=6000,
                            replearn=replearn)
    for seed in range(4):
        M = combination_lock(6, 4, 2, seed)
        Phi = make_feature_class(M, n_decoys=2, rng=np.random.default_rng(seed),
                                 true_index=2)
        eta = min(reachability_eta(M, h) for h in range(1, M.H))
        runs = [("expectation", 1.0 / (2 * M.A),
                 run_vox(M, Phi, vox, Expected(np.random.default_rng(100 + seed)))),
                ("max", 1.0 / M.A,
                 run_spanrl(M, Phi, eta / (36.0 * M.d ** 2.5), spanrl,
                            Expected(np.random.default_rng(200 + seed))))]
        for mode, alpha, result in runs:
            for h in range(2, M.H):
                got = check_policy_cover(M, result.covers.distribution(h), h,
                                         alpha=0.0, eps=0.0, mode=mode)
                assert abs(got["alpha_measured"] - alpha) <= 1e-12, (seed, mode, h)
