"""Minimax feature selection: datasets, adversarial gaps, the learning loop."""

import numpy as np
import pytest

from voxlab import Discriminator, FeatureClass, Policy, VoxlabError
from voxlab.psdp import ball_constrained_least_squares
from voxlab.replearn import (
    RepLearnConfig,
    RepLearnDataset,
    _min_loss,
    adversarial_gap,
    discriminator_search,
    exact_transfer_error,
    feature_selection,
    rep_learn,
)
from voxlab.simenv import make_feature_class

from conftest import small_env
from oracles import chi2_uniformity_pvalue


def true_class(M):
    return FeatureClass([list(M.phi)], true_index=0)


def batch_ball_losses(Z, Y, radius, weights):
    """Exact ball-constrained weighted lsq losses for many targets at once.

    Z (m, d), Y (m, K), weights (m,) -> per-column minimal losses (K,).
    Same ridge-bisection math as the library solver, vectorized over K so a
    dense angular grid is affordable.
    """
    sw = np.sqrt(weights)
    Zw = Z * sw[:, None]
    Yw = Y * sw[:, None]
    U, S, Vt = np.linalg.svd(Zw, full_matrices=False)
    B = U.T @ Yw
    pos = S > (S[0] * 1e-13 if S.size and S[0] > 0 else 0.0)
    C0 = np.zeros_like(B)
    C0[pos] = B[pos] / S[pos, None]
    norms = np.linalg.norm(C0, axis=0)
    need = norms > radius + 1e-10
    lam = np.zeros(Y.shape[1])
    if need.any():
        Bn = B[:, need]

        def norm_at(l):
            c = S[:, None] * Bn / (S[:, None] ** 2 + l[None, :])
            return np.sqrt((c * c).sum(axis=0))

        hi = np.ones(int(need.sum()))
        for _ in range(100):
            over = norm_at(hi) > radius
            if not over.any():
                break
            hi[over] *= 2.0
        lo = np.zeros_like(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            big = norm_at(mid) > radius
            lo[big] = mid[big]
            hi[~big] = mid[~big]
        lam[need] = 0.5 * (lo + hi)
    coef = np.where(
        need[None, :],
        S[:, None] * B / (S[:, None] ** 2 + np.where(need, lam, 1.0)[None, :]),
        C0,
    )
    W = Vt.T @ coef
    R = Zw @ W - Yw
    return (R * R).sum(axis=0)


def grid_gap_maximum(Phi, current, data, config, n_angles=3600):
    """Max adversarial gap over a dense angular grid of d=2 directions."""
    d = Phi.d
    assert d == 2
    _, r_big, r_small, _ = config.resolve(d, data.n, len(Phi.candidates))
    angles = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    cnt = data.pair_counts.ravel()
    keep = cnt > 0
    weights = cnt[keep]
    tables = [tab.reshape(-1, d)[keep] for tab in Phi.tables_at(data.layer)]
    flat_counts = data.counts.reshape(-1, data.counts.shape[2])[keep]
    best = -np.inf
    for ftab in Phi.tables_at(data.layer + 1):
        F = np.tensordot(ftab, dirs.T, axes=([2], [0])).max(axis=1)  # (n', K)
        Y = (flat_counts @ F) / weights[:, None]
        own = batch_ball_losses(tables[current], Y, r_big, weights)
        small = np.min(
            [batch_ball_losses(tab, Y, r_small, weights) for tab in tables],
            axis=0,
        )
        best = max(best, float((own - small).max()))
    return best


# ----------------------------------------------------------------- config


def test_resolve_iteration_counts_and_radii():
    cfg = RepLearnConfig()
    _, r_big, r_small, T = cfg.resolve(2, 100, 4)
    assert T == 25
    assert r_big == pytest.approx(3.0 * 2 ** 1.5)
    assert r_small == pytest.approx(2.0 * np.sqrt(2))
    _, _, _, T2 = cfg.resolve(2, 20_000, 4)
    assert T2 == 51
    eps, _, _, _ = RepLearnConfig(c=1.0, delta=0.05).resolve(2, 20_000, 4)
    assert eps == pytest.approx(np.sqrt(4 * np.log(4 / 0.05) / 20_000))


# ----------------------------------------------------------------- dataset


def test_collect_counts_and_uniform_actions(env):
    P = Policy.uniform(env, lo=0, hi=0)
    data = RepLearnDataset.collect(env, 0, P, 10_000, np.random.default_rng(0))
    assert data.counts.sum() == 10_000
    assert data.n == 10_000
    action_marginal = data.counts.sum(axis=(0, 2))
    assert chi2_uniformity_pvalue(action_marginal) > 0.001
    assert np.array_equal(data.pair_counts, data.counts.sum(axis=2))


def test_collect_layer_and_count_validation(env):
    P = Policy.uniform(env)
    with pytest.raises(VoxlabError):
        RepLearnDataset.collect(env, env.H - 1, P, 10, np.random.default_rng(1))
    with pytest.raises(VoxlabError):
        RepLearnDataset.collect(env, 0, P, 0, np.random.default_rng(2))


def test_regression_targets_are_cell_means(env):
    P = Policy.uniform(env, lo=0, hi=0)
    data = RepLearnDataset.collect(env, 0, P, 500, np.random.default_rng(3))
    f = np.arange(env.n_states(1), dtype=float)
    reg = data.regression_for(f)
    for x, a, y, w in zip(reg.xs, reg.acts, reg.ys, reg.weights):
        want = (data.counts[x, a] @ f) / data.counts[x, a].sum()
        assert y == pytest.approx(want, abs=1e-12)
        assert w == data.pair_counts[x, a]


def test_dataset_holds_a_frozen_copy_of_its_counts(env):
    data = RepLearnDataset.collect(
        env, 0, Policy.uniform(env, lo=0, hi=0), 500, np.random.default_rng(21))
    counts = np.array(data.counts)  # a writeable float64 array of the same shape
    own = RepLearnDataset(0, counts)
    assert counts.flags.writeable and not own.counts.flags.writeable
    f = np.linspace(-1.0, 1.0, env.n_states(1))
    tab = make_feature_class(env, n_decoys=1, rng=np.random.default_rng(22))[1][0]
    reg = own.regression_for(f)
    loss, w = _min_loss(own, tab, reg, 1.5)
    counts[:] = 0.0
    counts[0, 0, 0] = 7.0
    reg2 = own.regression_for(f)
    for field_ in ("xs", "acts", "ys", "weights", "offset"):
        assert np.array_equal(getattr(reg2, field_), getattr(reg, field_))
    loss2, w2 = _min_loss(own, tab, reg2, 1.5)
    assert loss2 == loss and np.array_equal(w2, w)


def test_cached_min_loss_equals_a_from_scratch_solve(env):
    rng = np.random.default_rng(23)
    Phi = make_feature_class(env, n_decoys=2, rng=rng)
    P = Policy.uniform(env, lo=0, hi=0)
    first = RepLearnDataset.collect(env, 0, P, 300, rng)
    second = RepLearnDataset.collect(env, 0, P, 900, rng)
    thetas = [np.array([np.cos(t), np.sin(t)]) for t in (0.2, 2.0, 4.4)]
    for _ in range(2):  # the second pass is answered from the caches
        for data in (first, second):  # two datasets share every table
            for theta in thetas:
                reg = data.regression_for((Phi[1][1] @ theta).max(axis=1))
                for tab in Phi.tables_at(0):
                    for radius in (0.3, 2.0 * np.sqrt(2)):
                        loss, w = _min_loss(data, tab, reg, radius)
                        Z = tab[reg.xs, reg.acts]
                        want = ball_constrained_least_squares(
                            Z, reg.ys, radius, weights=reg.weights)
                        resid = Z @ want - reg.ys
                        assert np.array_equal(w, want)
                        assert loss == (float((reg.weights * resid * resid).sum())
                                        + reg.offset)


# ------------------------------------------------------------ adversarial


def test_zero_discriminator_gives_zero_gap(env):
    # a direction orthogonal to every feature at the next layer makes the
    # test function vanish, so both regression losses are exactly zero
    zeroed = env.phi[1].copy()
    zeroed[:, :, 1] = 0.0
    Phi = FeatureClass([[env.phi[0], zeroed]])
    f = Discriminator(np.array([0.0, 1.0]), 0)
    data = RepLearnDataset.collect(
        env, 0, Policy.uniform(env, lo=0, hi=0), 300, np.random.default_rng(4))
    assert adversarial_gap(Phi, 0, f, data, RepLearnConfig()) == 0.0


def test_own_candidate_gap_nonnegative_with_equal_radii(env):
    rng = np.random.default_rng(5)
    Phi = make_feature_class(env, n_decoys=2, rng=rng)
    data = RepLearnDataset.collect(
        env, 0, Policy.uniform(env, lo=0, hi=0), 400, rng)
    r = 2.0 * np.sqrt(2)
    cfg = RepLearnConfig(r_big=r, r_small=r)
    for i in range(len(Phi)):
        f = Discriminator(np.array([0.8, 0.6]), (i + 1) % len(Phi))
        assert adversarial_gap(Phi, i, f, data, cfg) >= -1e-12


def test_search_beats_every_seed_direction(env):
    rng = np.random.default_rng(6)
    Phi = make_feature_class(env, n_decoys=1, rng=rng)
    data = RepLearnDataset.collect(
        env, 0, Policy.uniform(env, lo=0, hi=0), 400, rng)
    cfg = RepLearnConfig(restarts=2, grad_steps=15)
    _, best_gap = discriminator_search(Phi, 1, data, cfg, np.random.default_rng(7))
    for fi in range(len(Phi)):
        for i in range(2):
            for s in (1.0, -1.0):
                theta = np.zeros(2)
                theta[i] = s
                seed_gap = adversarial_gap(Phi, 1, Discriminator(theta, fi),
                                           data, cfg)
                assert best_gap >= seed_gap - 1e-12


def test_search_is_exhaustive_in_one_dimension():
    M = small_env(seed=8, H=3, A=2, d=1, states=(2, 3, 3))
    rng = np.random.default_rng(9)
    Phi = make_feature_class(M, n_decoys=1, rng=rng)
    data = RepLearnDataset.collect(
        M, 0, Policy.uniform(M, lo=0, hi=0), 300, rng)
    cfg = RepLearnConfig(restarts=1, grad_steps=5)
    _, best_gap = discriminator_search(Phi, 0, data, cfg, np.random.default_rng(10))
    want = max(
        adversarial_gap(Phi, 0, Discriminator(np.array([s]), fi), data, cfg)
        for fi in range(len(Phi))
        for s in (1.0, -1.0)
    )
    assert best_gap == pytest.approx(want, abs=1e-12)


def test_search_tracks_dense_grid_maximum():
    # at d = 2 the search should land within 2% of a 3600-point angular grid
    # maximum in at least 95 of 100 random instances
    passes = 0
    total = 100
    for trial in range(total):
        rng = np.random.default_rng(1000 + trial)
        M = small_env(seed=trial, H=3, A=2, d=2, states=(2, 3, 3))
        Phi = make_feature_class(M, n_decoys=1, rng=rng)
        data = RepLearnDataset.collect(
            M, 0, Policy.uniform(M, lo=0, hi=0), 300, rng)
        current = int(rng.integers(len(Phi)))
        cfg = RepLearnConfig()
        _, got = discriminator_search(Phi, current, data, cfg,
                                      np.random.default_rng(2000 + trial))
        grid = grid_gap_maximum(Phi, current, data, cfg)
        if grid <= 0.0 or got >= 0.98 * grid - 1e-12:
            passes += 1
    assert passes >= 95


def test_grid_helper_agrees_with_pointwise_gap(env):
    # spot check the vectorized grid oracle against the library gap
    rng = np.random.default_rng(11)
    Phi = make_feature_class(env, n_decoys=1, rng=rng)
    data = RepLearnDataset.collect(
        env, 0, Policy.uniform(env, lo=0, hi=0), 300, rng)
    cfg = RepLearnConfig()
    _, r_big, r_small, _ = cfg.resolve(2, data.n, len(Phi.candidates))
    for angle in (0.0, 1.0, 2.5):
        theta = np.array([np.cos(angle), np.sin(angle)])
        for fi in range(len(Phi)):
            got = adversarial_gap(Phi, 0, Discriminator(theta, fi), data, cfg)
            cnt = data.pair_counts.ravel()
            keep = cnt > 0
            weights = cnt[keep]
            tabs = [t.reshape(-1, 2)[keep] for t in Phi.tables_at(0)]
            fvals = (Phi.tables_at(1)[fi] @ theta).max(axis=1)
            flat = data.counts.reshape(-1, data.counts.shape[2])[keep]
            Y = ((flat @ fvals) / weights)[:, None]
            own = batch_ball_losses(tabs[0], Y, r_big, weights)[0]
            small = min(batch_ball_losses(t, Y, r_small, weights)[0]
                        for t in tabs)
            assert got == pytest.approx(own - small, abs=1e-9)


# ------------------------------------------------------------ selection


def test_feature_selection_prefers_realizing_candidate(env):
    rng = np.random.default_rng(12)
    Phi = make_feature_class(env, n_decoys=2, rng=rng, true_index=0)
    data = RepLearnDataset.collect(
        env, 0, Policy.uniform(env, lo=0, hi=0), 8000, rng)
    discs = [Discriminator(np.array([np.cos(t), np.sin(t)]), 0)
             for t in (0.3, 1.7, 4.0)]
    assert feature_selection(Phi, discs, data, RepLearnConfig()) == 0
    with pytest.raises(VoxlabError):
        feature_selection(Phi, [], data, RepLearnConfig())


# ------------------------------------------------------------- rep_learn


def test_rep_learn_singleton_class_terminates_immediately(env):
    result = rep_learn(env, 0, true_class(env), Policy.uniform(env, lo=0, hi=0),
                       500, RepLearnConfig(restarts=1, grad_steps=5),
                       np.random.default_rng(13))
    assert result.index == 0
    assert result.iterations == 1
    assert not result.capped
    assert result.gaps[0] <= result.threshold


def test_rep_learn_respects_iteration_cap(env):
    rng = np.random.default_rng(14)
    Phi = make_feature_class(env, n_decoys=2, rng=rng)
    cfg = RepLearnConfig(restarts=1, grad_steps=5, max_iters=2,
                         eps_stat=1e-9)  # threshold impossible to meet
    result = rep_learn(env, 0, Phi, Policy.uniform(env, lo=0, hi=0), 400, cfg,
                       np.random.default_rng(15))
    assert result.iterations <= 2
    assert result.capped or result.gaps[-1] <= result.threshold


def test_rep_learn_layer_domain(env):
    Phi = true_class(env)
    with pytest.raises(VoxlabError):
        rep_learn(env, env.H - 2, Phi, Policy.uniform(env), 100,
                  RepLearnConfig(), np.random.default_rng(16))


def test_rep_learn_selects_true_features(env):
    rng = np.random.default_rng(17)
    Phi = make_feature_class(env, n_decoys=3, rng=rng, true_index=1)
    result = rep_learn(env, 0, Phi, Policy.uniform(env, lo=0, hi=0), 12_000,
                       RepLearnConfig(restarts=3, grad_steps=25),
                       np.random.default_rng(18))
    err_chosen = exact_transfer_error(env, 0, Phi, result.index,
                                      Policy.uniform(env, lo=0, hi=0),
                                      n_dirs=50, rng=np.random.default_rng(19))
    err_true = exact_transfer_error(env, 0, Phi, 1,
                                    Policy.uniform(env, lo=0, hi=0),
                                    n_dirs=50, rng=np.random.default_rng(19))
    assert err_chosen <= 2.0 * err_true + 1e-10


def test_exact_transfer_error_zero_for_true_map(env):
    P = Policy.uniform(env, lo=0, hi=0)
    Phi = make_feature_class(env, n_decoys=1, rng=np.random.default_rng(20))
    assert exact_transfer_error(env, 0, Phi, 0, P, n_dirs=20) <= 1e-18
    assert exact_transfer_error(env, 0, Phi, 1, P, n_dirs=20) > 1e-8
