"""Backward-regression policy search and its regression subroutines."""

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxlab import (
    EpisodeCounter,
    FeatureClass,
    Policy,
    PolicyDistribution,
    VoxlabError,
)
from voxlab.psdp import (
    BallLeastSquares,
    ObservedCells,
    ball_constrained_least_squares,
    fit_value_class,
    linear_reward,
    psdp,
    quadratic_reward,
)
from voxlab.simenv import (
    exact_policy_value,
    exact_q_tables,
    make_feature_class,
    sample_trajectories,
)

from conftest import (
    onehot_feature_class,
    reference_ball_solve,
    small_env,
    uniform_mixture,
)
from oracles import dp_optimal_policy, dp_optimal_value, oracle_ball_lsq


def all_det_covers(M, h):
    """Uniform mixture over all deterministic roll-ins, one mixture per layer."""
    from oracles import enumerate_det_policies

    covers = []
    for t in range(h + 1):
        if t == 0:
            covers.append(PolicyDistribution([Policy.empty(0)], [1.0]))
        else:
            pis = enumerate_det_policies(M, t - 1)
            covers.append(uniform_mixture(pis))
    return covers


# ----------------------------------------------- ball-constrained regression


def solve_one(fac, y, radius):
    """The one-row `solve_many` of a one-design factor."""
    return fac.solve_many(np.asarray(y, dtype=float)[None], radius)[0]


def rows_equal_single_solves(fac, Y, radius):
    """Check with np.array_equal that each row of `solve_many` equals the
    one-row `solve_many` of that row and the frozen one-target solve."""
    W = fac.solve_many(Y, radius)
    assert W.shape == (len(Y), fac.Vt.shape[1])
    for y, w in zip(Y, W):
        assert np.array_equal(w, solve_one(fac, y, radius))
        assert np.array_equal(w, reference_ball_solve(fac, y, radius))
    return W


def factored_equals_one_shot(Z, y, radius, weights=None):
    """Solve through one factorization reused for several targets and radii,
    and check every answer is bit-identical to a one-shot solve and to the
    same targets solved as a batch."""
    fac = BallLeastSquares(Z, weights)
    y2 = np.asarray(y, dtype=float)[::-1] * 1.5
    for target, r in ((y, radius), (y2, radius), (y, 0.5 * radius), (y, radius)):
        got = solve_one(fac, target, r)
        want = ball_constrained_least_squares(Z, target, r, weights=weights)
        assert np.array_equal(got, want)
    for r in (radius, 0.5 * radius):
        rows_equal_single_solves(fac, np.stack([y, y2]).astype(float), r)
    return solve_one(fac, y, radius)


def mixed_batch(rng, S, m):
    """S targets whose scales fall from 10 to 0.01, so with radius 1 the
    first rows need the bisection and the last fit inside the ball."""
    return rng.standard_normal((S, m)) * np.geomspace(10.0, 0.01, S)[:, None]


@pytest.mark.parametrize("S", [1, 2, 50])
def test_solve_many_rows_equal_single_solves(S):
    rng = np.random.default_rng(S)
    Z = rng.standard_normal((9, 3))
    Y = mixed_batch(rng, S, 9)
    for wts in (None, rng.random(9) + 0.1):
        fac = BallLeastSquares(Z, wts)
        W = rows_equal_single_solves(fac, Y, 1.0)
        norms = np.linalg.norm(W, axis=1)
        assert abs(norms[0] - 1.0) <= 1e-9  # bisected onto the sphere
        if S > 1:
            assert norms[-1] < 0.5  # the plain minimum-norm solution
        # non-contiguous views of the same targets give the same answers
        wide = np.zeros((2 * S, 27))
        wide[::2, ::3] = Y
        for view in (wide[::2, ::3], np.asfortranarray(Y)):
            assert np.array_equal(fac.solve_many(view, 1.0), W)
    with pytest.raises(VoxlabError):
        BallLeastSquares(Z).solve_many(Y[:, :8], 1.0)
    with pytest.raises(VoxlabError):
        BallLeastSquares(Z).solve_many(Y[0], 1.0)
    with pytest.raises(VoxlabError):
        ball_constrained_least_squares(Z, Y[:1], 1.0)
    with pytest.raises(VoxlabError):
        BallLeastSquares(Z).solve_many(Y, 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12), st.integers(1, 8),
       st.integers(1, 4), st.floats(0.1, 3.0), st.booleans())
def test_solve_many_rows_property(seed, S, m, d, radius, weighted):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((m, d))
    Z[:, rng.random(d) < 0.25] = 0.0  # sometimes rank-deficient
    wts = rng.random(m) + 0.05 if weighted else None
    rows_equal_single_solves(BallLeastSquares(Z, wts), mixed_batch(rng, S, m),
                             radius)


def test_ball_lsq_trivial_cases():
    w = ball_constrained_least_squares(np.zeros((4, 2)), np.zeros(4), 1.0)
    assert np.allclose(w, 0.0)
    w = ball_constrained_least_squares(np.array([[1.0]]), np.array([2.0]), 1.0)
    assert abs(w[0] - 1.0) < 1e-9  # clamped to the ball boundary
    w = ball_constrained_least_squares(np.array([[1.0]]), np.array([0.5]), 1.0)
    assert abs(w[0] - 0.5) < 1e-12  # interior solution is the plain lsq
    # the same designs, plus a rank-deficient one, through a reused factorization
    zero_col = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
    for Z, y in ((np.zeros((4, 2)), np.zeros(4)), (np.zeros((4, 2)), np.ones(4)),
                 (zero_col, np.array([1.0, 3.0, 0.5])),
                 (np.array([[1.0]]), np.array([2.0])),
                 (np.array([[1.0]]), np.array([0.5]))):
        for wts in (None, np.arange(1.0, Z.shape[0] + 1)):
            w = factored_equals_one_shot(Z, y, 1.0, weights=wts)
            if Z is zero_col:
                assert abs(w[1]) <= 1e-12
                assert np.linalg.norm(w) <= 1.0 + 1e-9


def test_ball_lsq_shape_and_radius_errors():
    with pytest.raises(VoxlabError):
        ball_constrained_least_squares(np.zeros((3, 2)), np.zeros(4), 1.0)
    with pytest.raises(VoxlabError):
        ball_constrained_least_squares(np.zeros((3, 2)), np.zeros(3), 0.0)
    with pytest.raises(VoxlabError):  # a stack of designs
        ball_constrained_least_squares(np.zeros((2, 3, 2)), np.zeros(3), 1.0)


def test_ball_lsq_rejects_a_1d_design():
    with pytest.raises(VoxlabError, match=r"shape mismatch: Z \(3,\) is not 2-d or 3-d"):
        BallLeastSquares(np.zeros(3))


def test_ball_lsq_matches_slsqp_oracle():
    rng = np.random.default_rng(0)
    for trial in range(8):
        m, k = 12, 5
        Z = rng.standard_normal((m, k))
        y = rng.standard_normal(m) * 3.0
        wts = rng.random(m) + 0.1
        radius = 0.8
        w = factored_equals_one_shot(Z, y, radius, weights=wts)
        w_ref, f_ref = oracle_ball_lsq(Z, y, radius, weights=wts, seed=trial)
        f_got = float((wts * (Z @ w - y) ** 2).sum())
        assert np.linalg.norm(w) <= radius + 1e-8
        assert f_got <= f_ref + 1e-6


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.1, 3.0))
def test_ball_lsq_feasibility_property(seed, radius):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((6, 3))
    y = rng.standard_normal(6) * 5.0
    w = factored_equals_one_shot(Z, y, radius)
    assert np.linalg.norm(w) <= radius + 1e-8
    # optimality within the ball: no better point on a random probe set
    f = float(((Z @ w - y) ** 2).sum())
    probes = rng.standard_normal((50, 3))
    probes *= (radius * rng.random(50) ** 0.5 / np.linalg.norm(probes, axis=1))[:, None]
    f_probe = ((probes @ Z.T - y) ** 2).sum(axis=1).min()
    assert f <= f_probe + 1e-8


def assert_slices_equal_one_design_factors(Zs, weights, Y, radius):
    """Each slice of the stacked factor of the designs Zs equals that
    design's own factor and its frozen one-target solves, bit for bit, and
    so do the losses of `fit`, plus one within-cell offset per row."""
    fac = BallLeastSquares(np.stack(Zs), weights)
    offsets = np.linspace(0.0, 1.0, len(Y))
    losses, W = fac.fit(Y, offsets, radius)
    assert W.shape == (len(Zs), len(Y), Zs[0].shape[1])
    assert losses.shape == (len(Zs), len(Y))
    assert np.array_equal(W, fac.solve_many(Y, radius))
    wts = np.ones(len(Zs[0])) if weights is None else weights
    for k, Z in enumerate(Zs):
        one = BallLeastSquares(Z, weights)
        for name in ("Z", "U", "s", "Vt", "pos"):
            assert np.array_equal(getattr(fac, name)[k], getattr(one, name))
        assert np.array_equal(W[k], one.solve_many(Y, radius))
        assert np.array_equal(losses[k], one.losses(W[k], Y, offsets))
        for y, w, offset, loss in zip(Y, W[k], offsets, losses[k]):
            assert np.array_equal(w, reference_ball_solve(one, y, radius))
            resid = Z @ w - y
            assert loss == pytest.approx((wts * resid * resid).sum() + offset,
                                         rel=1e-12, abs=1e-12)
    return fac, W


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("weighted", [False, True])
def test_stacked_factor_slices_equal_one_design_factors(K, weighted):
    rng = np.random.default_rng(10 * K + weighted)
    m, d = 9, 3
    wts = rng.random(m) + 0.1 if weighted else None
    # scales 0.05..20: the small designs need large weights, so their rows
    # leave the ball and are bisected while the large designs' rows fit
    Zs = [rng.standard_normal((m, d)) * scale
          for scale in np.geomspace(0.05, 20.0, K)]
    Y = rng.standard_normal((6, m))
    fac, W = assert_slices_equal_one_design_factors(Zs, wts, Y, 1.0)
    _, W0 = fac.min_norm(Y)
    outside = np.linalg.norm(W0, axis=2) > 1.0
    if K == 3:
        assert outside[0].all() and not outside[-1].any()
    assert np.allclose(np.linalg.norm(W[outside], axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("weighted", [False, True])
def test_stacked_factor_degenerate_slices(weighted):
    rng = np.random.default_rng(5)
    full = rng.standard_normal((6, 3))
    deficient = full.copy()
    deficient[:, 1] = 2.0 * deficient[:, 0]
    zero = np.zeros((6, 3))
    wts = rng.random(6) + 0.1 if weighted else None
    Y = rng.standard_normal((5, 6)) * np.geomspace(10.0, 0.01, 5)[:, None]
    fac, W = assert_slices_equal_one_design_factors([full, deficient, zero], wts,
                                                    Y, 1.0)
    assert fac.pos.sum(axis=1).tolist() == [3, 2, 0]
    assert not W[2].any()
    # m < d: fewer observed rows than features
    wide = [rng.standard_normal((2, 4)) for _ in range(3)]
    wts = rng.random(2) + 0.1 if weighted else None
    fac, _ = assert_slices_equal_one_design_factors(wide, wts, Y[:, :2], 1.0)
    assert fac.U.shape == (3, 2, 2) and fac.Vt.shape == (3, 2, 4)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(1, 6),
       st.integers(1, 8), st.integers(1, 4), st.floats(0.1, 3.0), st.booleans())
def test_stacked_factor_property(seed, K, S, m, d, radius, weighted):
    rng = np.random.default_rng(seed)
    Zs = [rng.standard_normal((m, d)) * rng.choice([0.1, 1.0, 10.0])
          for _ in range(K)]
    for Z in Zs:
        Z[:, rng.random(d) < 0.25] = 0.0  # sometimes rank-deficient
    wts = rng.random(m) + 0.05 if weighted else None
    assert_slices_equal_one_design_factors(Zs, wts, mixed_batch(rng, S, m), radius)


# --------------------------------------------------------- reward tables


def top_layer_rewards(M, h, top):
    return [np.zeros((M.n_states(t), M.A)) for t in range(h)] + [top]


def test_quadratic_reward_clips_at_the_float_norm_2_gives():
    # the clip's upper end is read off the SVD: the bits of np.linalg.norm(mat, 2)
    rng = np.random.default_rng(12)
    for d in (1, 2, 3, 5):
        for _ in range(50):
            mat = rng.standard_normal((d, d))
            mat = (mat @ mat.T) / np.linalg.norm(mat @ mat.T)  # like a design query
            feat = 3.0 * rng.standard_normal((4, 2, d))
            want = np.clip(np.einsum("xad,de,xae->xa", feat, mat, feat), 0.0,
                           float(np.linalg.norm(mat, 2)))
            assert quadratic_reward(mat, feat).tobytes() == want.tobytes()


def test_reward_spec_bounds_and_clipping(env):
    feat = env.phi[1]
    mat = np.array([[2.0, 0.0], [0.0, 1.0]])
    tab = quadratic_reward(mat, feat)
    assert tab.shape == (env.n_states(1), env.A)
    assert tab.min() >= 0.0 and tab.max() <= 2.0 + 1e-12
    theta = np.array([0.6, -0.8])
    tab = linear_reward(theta, feat)
    assert tab.shape == (env.n_states(1), env.A)
    assert np.abs(tab).max() <= 1.0 + 1e-12
    with pytest.raises(VoxlabError, match="square matrix"):
        quadratic_reward(np.ones((2, 3)), feat)

    # features longer than 1 push the raw values out of range: the tables
    # clip to [0, ||mat||_op] and [-||theta||, ||theta||], and no further
    big = np.array([[[3.0, 0.0], [0.0, 0.1]], [[-3.0, 4.0], [0.0, 0.0]]])
    tab = quadratic_reward(mat, big)
    assert np.array_equal(tab, np.clip(np.einsum("xad,de,xae->xa", big, mat, big),
                                       0.0, 2.0))
    assert tab.max() == 2.0 and tab[0, 1] == pytest.approx(0.01)
    tab = quadratic_reward(-mat, big)
    assert np.array_equal(tab, np.zeros((2, 2)))
    tab = linear_reward(theta, big)
    assert np.array_equal(tab, np.clip(big @ theta, -1.0, 1.0))
    assert tab.max() == 1.0 and tab.min() == -1.0
    assert tab[0, 1] == pytest.approx(-0.08)


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
@pytest.mark.parametrize("extra", [(0, 1), (0, -1), (1, 0), (-1, 0)])
def test_feature_reward_kinds_reject_misshaped_feature_tables(env, kind, extra):
    # psdp reads rewards flat at x * A + a, so an (n_h, A + 1) table would
    # read a misplaced cell instead of failing
    n, A = env.n_states(1) + extra[0], env.A + extra[1]
    feat = np.full((n, A, 2), 0.5)
    top = (linear_reward(np.ones(2), feat) if kind == "linear"
           else quadratic_reward(np.eye(2), feat))
    Phi = make_feature_class(env, n_decoys=1, rng=np.random.default_rng(0))
    with pytest.raises(VoxlabError, match=r"layer 1 has shape"):
        psdp(env, 1, top_layer_rewards(env, 1, top), Phi, 1.0,
             all_det_covers(env, 1), 20, np.random.default_rng(1))


@pytest.mark.parametrize("bad_layer", [0, 1, 2])
def test_psdp_rejects_short_reward_lists_and_misshaped_tables(env, bad_layer):
    Phi = make_feature_class(env, n_decoys=1, rng=np.random.default_rng(0))
    covers = all_det_covers(env, 2)
    tabs = [np.zeros((env.n_states(t), env.A)) for t in range(3)]
    with pytest.raises(VoxlabError, match=r"reward tables for layers 0..2, got 2"):
        psdp(env, 2, tabs[:2], Phi, 1.0, covers, 20, np.random.default_rng(1))
    tabs[bad_layer] = np.zeros((env.n_states(bad_layer), env.A + 1))
    with pytest.raises(VoxlabError, match=rf"reward table at layer {bad_layer} "
                                          r"has shape"):
        psdp(env, 2, tabs, Phi, 1.0, covers, 20, np.random.default_rng(1))


@pytest.mark.parametrize("radii", [0.0, -1.0, float("nan"), None, [1.0] * 3, "1.0",
                                   np.array([1.0, 2.0])])
def test_psdp_rejects_bad_radii_before_drawing_an_episode(env, radii):
    # one radius serves every fitted layer; at h = 0 none is fitted, and a
    # bad radius still raises, a per-layer list, a string or an array too
    Phi = make_feature_class(env, n_decoys=1, rng=np.random.default_rng(0))
    for h in (0, 2):
        tabs = [np.zeros((env.n_states(t), env.A)) for t in range(h + 1)]
        rng, counter = np.random.default_rng(1), EpisodeCounter()
        before = rng.bit_generator.state
        with pytest.raises(VoxlabError, match=r"radius must be > 0"):
            psdp(env, h, tabs, Phi, radii, all_det_covers(env, h), 20, rng,
                 counter=counter)
        assert counter.count == 0 and rng.bit_generator.state == before


# ------------------------------------------------------- class fitting


def regression_data(layer, xs, acts, ys, n_states, A):
    """The layer and the (n_states, A) cell counts and return sums of raw
    samples."""
    cell = np.asarray(xs, dtype=np.int64) * A + np.asarray(acts, dtype=np.int64)
    counts = np.bincount(cell, minlength=n_states * A).reshape(n_states, A)
    sums = np.bincount(cell, weights=ys, minlength=n_states * A).reshape(n_states, A)
    return layer, counts, sums


def observed_cells(counts, sums):
    """The cells with a positive count, their mean targets and their counts
    as weights: xs, acts, ys, weights."""
    counts = np.asarray(counts, dtype=float)
    keep = counts > 0
    xs, acts = np.nonzero(keep)
    return xs, acts, np.asarray(sums, dtype=float)[keep] / counts[keep], counts[keep]


def reference_fit_value_class(data, Phi, radius):
    """Frozen copy of the per-candidate `fit_value_class` that the stacked
    one is pinned to: one factor and one frozen solve per candidate, the
    first lowest loss kept."""
    layer, counts, sums = data
    xs, acts, ys, weights = observed_cells(counts, sums)
    best = None
    for i, tab in enumerate(Phi.tables_at(layer)):
        Z = tab[xs, acts]
        fac = BallLeastSquares(Z, weights)
        w = reference_ball_solve(fac, ys, radius)
        resid = Z @ w - ys
        loss = float((weights * resid * resid).sum())
        if best is None or loss < best[3]:
            best = (i, w, tab @ w, loss)
    return best


def fit_data(Phi, data, radius):
    """`fit_value_class` on the observed cells of the regression data."""
    layer, counts, sums = data
    return fit_value_class(Phi, layer, ObservedCells(counts), sums, radius)


def assert_fit_matches_reference(data, Phi, radius):
    fit = fit_data(Phi, data, radius)
    index, w, q_table, loss = reference_fit_value_class(data, Phi, radius)
    assert fit.phi_index == index
    assert fit.w.tobytes() == w.tobytes()
    assert np.array_equal(fit.q_table, q_table)
    assert np.float64(fit.loss).tobytes() == np.float64(loss).tobytes()
    return fit


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_ball_matches_the_per_candidate_reference(seed):
    from voxlab.simenv import make_feature_class

    rng = np.random.default_rng(seed)
    M = small_env(seed=seed, H=3, A=2, d=3, states=(4, 6, 5), rotate=seed == 1)
    classes = [make_feature_class(M, n_decoys=3, rng=rng), onehot_feature_class(M)]
    for t in (0, 1):
        for n in (5, 40, 400):  # few samples leave cells unobserved: m < d
            xs = rng.integers(0, M.n_states(t), size=n)
            acts = rng.integers(0, M.A, size=n)
            ys = (rng.standard_normal(n)
                  + M.phi[t][xs, acts] @ np.array([2.0, -1.0, 0.5]))
            data = regression_data(t, xs, acts, ys, M.n_states(t), M.A)
            for Phi in classes:
                for radius in (0.2, 1.0, 50.0):  # bisected down to plain fits
                    assert_fit_matches_reference(data, Phi, radius)


def test_fit_ball_keeps_the_first_of_tied_candidates(env):
    # candidates 1 and 2 are the same map, so their losses tie exactly
    from voxlab.simenv import make_feature_class

    rng = np.random.default_rng(3)
    decoy = make_feature_class(env, n_decoys=1, rng=rng)[1]
    Phi = FeatureClass([decoy, list(env.phi), [t.copy() for t in env.phi]])
    xs = rng.integers(0, env.n_states(1), size=300)
    acts = rng.integers(0, env.A, size=300)
    ys = env.phi[1][xs, acts] @ np.array([0.5, -0.2])
    data = regression_data(1, xs, acts, ys, env.n_states(1), env.A)
    fit = assert_fit_matches_reference(data, Phi, 1.0)
    assert fit.phi_index == 1


def test_fit_ball_recovers_planted_weights(env):
    rng = np.random.default_rng(1)
    w_true = np.array([0.4, -0.3])
    tab = env.phi[1]
    xs = rng.integers(0, env.n_states(1), size=400)
    acts = rng.integers(0, env.A, size=400)
    ys = tab[xs, acts] @ w_true
    data = regression_data(1, xs, acts, ys, env.n_states(1), env.A)
    fit = fit_data(FeatureClass([list(env.phi)]), data, 1.0)
    assert fit.loss < 1e-16
    assert np.allclose(fit.q_table, tab @ w_true, atol=1e-8)


def test_fit_ball_prefers_the_realizing_candidate(env):
    # data generated linearly in phi* should select phi* over a scrambled decoy
    rng = np.random.default_rng(2)
    from voxlab.simenv import make_feature_class

    Phi = make_feature_class(env, n_decoys=1, rng=rng, true_index=0)
    w_true = np.array([0.5, 0.2])
    tab = Phi[0][1]
    xs = rng.integers(0, env.n_states(1), size=600)
    acts = rng.integers(0, env.A, size=600)
    ys = tab[xs, acts] @ w_true
    data = regression_data(1, xs, acts, ys, env.n_states(1), env.A)
    fit = fit_data(Phi, data, 1.0)
    assert fit.phi_index == 0


def test_regression_data_aggregation_preserves_loss():
    # the aggregated weighted loss plus the within-cell spread, which no w
    # changes, equals the raw per-sample loss
    xs = np.array([0, 0, 1, 1, 1])
    acts = np.array([0, 0, 0, 1, 1])
    ys = np.array([1.0, 3.0, 2.0, 0.0, 1.0])
    data = regression_data(0, xs, acts, ys, 2, 2)
    _, _, means, weights = observed_cells(*data[1:])
    assert np.array_equal(weights, [2.0, 1.0, 2.0])
    assert np.array_equal(means, [2.0, 2.0, 0.5])
    # a ball too small to reach the cell means, so the fit is not exact
    feat = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.6, 0.8], [0.0, 1.0]]])
    fit = fit_data(FeatureClass([[feat]]), data, 0.5)
    assert np.linalg.norm(fit.w) == pytest.approx(0.5, abs=1e-9)
    raw_loss = float(((fit.q_table[xs, acts] - ys) ** 2).sum())
    spread = (1.0 + 1.0) + 0.0 + (0.25 + 0.25)
    assert fit.loss + spread == pytest.approx(raw_loss, abs=1e-12)
    with pytest.raises(VoxlabError, match="empty regression dataset"):
        ObservedCells(np.zeros((2, 2)))


# ------------------------------------------------------------------ psdp


def test_psdp_cell_means_at_n_1e12_match_the_exact_q_tables(monkeypatch):
    # at n = 10**12 a layer's regression targets, the cell means of the
    # returns, equal the exact Q table of that layer under the greedy suffix
    # psdp built above it to 1e-5 wherever a cell holds 10**11 episodes:
    # the count chains carry each cell's returns with their exact law
    fits = record_regressions(monkeypatch)
    checked = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        H = 3 + seed % 2
        M = small_env(seed=seed, H=H, A=2, d=2, states=[2, 3, 2, 3][:H],
                      rotate=seed % 3 == 0)
        h = H - 1
        tabs = [rng.random((M.n_states(t), M.A)) for t in range(h + 1)]
        Phi = onehot_feature_class(M)
        pis = [Policy(0, [rng.random((M.n_states(t), M.A)) for t in range(H)]),
               Policy.uniform(M)]
        covers = [PolicyDistribution([Policy.empty(0)], [1.0])] + [
            PolicyDistribution(pis, [w, 1.0 - w]) for w in rng.random(h)]
        fits.clear()
        counter = EpisodeCounter()
        pi = psdp(M, h, tabs, Phi, 3.0 * np.sqrt(3 * M.A), covers, 10**12,
                  np.random.default_rng(seed), counter=counter)
        assert counter.count == 10**12 * (h + 1)
        q = exact_q_tables(M, pi, tabs)
        assert [f[0] for f in fits] == list(range(h - 1, -1, -1))
        for layer, xs, acts, ys, weights in fits:
            xs, acts, ys, weights = (np.frombuffer(b, dtype=dt) for b, dt in (
                (xs, np.int64), (acts, np.int64), (ys, float), (weights, float)))
            big = weights >= 1e11
            assert np.abs(ys[big] - q[layer][xs[big], acts[big]]).max() <= 1e-5
            checked += int(big.sum())
    assert checked >= 48


@pytest.mark.parametrize("h", [0, 1, 2])
def test_a_none_layer_is_greedy_on_its_reward_and_still_draws_n_episodes(h):
    # layer h fits none: its Q-function is its reward whatever the radius,
    # one-hot on the reward's argmax, yet its roll-in is drawn, so every
    # query draws (h + 1) * n episodes
    M = small_env(seed=11, H=3, A=3, d=2, states=(3, 4, 5))
    rng = np.random.default_rng(12)
    Phi = make_feature_class(M, n_decoys=1, rng=rng)
    tabs = [rng.standard_normal((M.n_states(t), M.A)) for t in range(h + 1)]
    covers = all_det_covers(M, h)
    for radius in (1.5, 0.01):
        counter = EpisodeCounter()
        got = psdp(M, h, tabs, Phi, radius, covers, 70, np.random.default_rng(13),
                   counter=counter)
        assert counter.count == 70 * (h + 1)
        want = np.zeros_like(tabs[h])
        want[np.arange(M.n_states(h)), tabs[h].argmax(axis=1)] = 1.0
        assert np.array_equal(got.table(h), want)


def memo_instance(seed, h):
    """An MDP, a feature class, per-layer covers mixing a deterministic and
    a random policy for layers 0..h, and a radius."""
    rng = np.random.default_rng(seed)
    M = small_env(seed=seed, H=5, A=3, d=2, states=(3, 4, 3, 4, 3))
    Phi = make_feature_class(M, n_decoys=1, rng=rng)
    pis = [Policy.from_actions(M, [rng.integers(M.A, size=M.n_states(t))
                                   for t in range(M.H)]),
           Policy(0, [rng.random((M.n_states(t), M.A)) for t in range(M.H)])]
    covers = [PolicyDistribution([Policy.empty(0)], [1.0])] + [
        PolicyDistribution(pis, [w, 1.0 - w]) for w in rng.random(h)]
    return M, Phi, covers, float(rng.uniform(0.5, 4.0))


def rollin_key(M, P, n, upto, tail):
    """The memo key of a PSDP roll-in of P through ``tail``: the roll-in's
    layer, the greedy actions of the tail on the layers above it, below
    upto, and the MDP, cover, n and upto it is drawn with."""
    t = tail.lo
    return (t,) + tuple(tail.table(ell).argmax(axis=1).tobytes()
                        for ell in range(t + 1, upto)) + (M, P, n, upto)


def keyed_rollins(stored):
    """Two stand-ins for psdp's `sample_trajectories`: one draws and records
    each key's first count chain in ``stored``, failing on a key drawn
    twice; the other replays a key found in the dict it is given, moving
    the counts at the top layer to the tail's actions there, and draws the
    others."""
    def recording(M, P, n, rng, upto, tail=None, counter=None):
        chain = sample_trajectories(M, P, n, rng, upto, tail, counter=counter)
        key = rollin_key(M, P, n, upto, tail)
        assert key not in stored, f"layer {tail.lo} drawn twice for one key"
        stored[key] = list(chain)
        return chain

    def replaying(before):
        def fake(M, P, n, rng, upto, tail=None, counter=None):
            key = rollin_key(M, P, n, upto, tail)
            if key not in before:
                return sample_trajectories(M, P, n, rng, upto, tail, counter=counter)
            chain = list(before[key])
            if len(chain) > 1:
                states = chain[-1].sum(axis=2)
                chain[-1] = np.zeros_like(chain[-1])
                acts = tail.table(upto).argmax(axis=1)
                chain[-1][:, np.arange(len(acts)), acts] = states
            return chain
        return fake

    return recording, replaying


def record_regressions(monkeypatch):
    """Make psdp record each regression dataset it fits, as bytes, in the
    list returned: the layer and the observed cells' states, actions, mean
    targets and counts."""
    fits = []

    def recording_fit(Phi, t, cells, sums, radius):
        xs, acts = np.divmod(cells.index, Phi.tables_at(t).shape[2])
        ys = np.asarray(sums, dtype=float).ravel()[cells.index] / cells.counts
        fits.append((t,) + tuple(a.tobytes() for a in (xs, acts, ys, cells.counts)))
        return fit_value_class(Phi, t, cells, sums, radius)

    monkeypatch.setattr(importlib.import_module("voxlab.psdp"), "fit_value_class",
                        recording_fit)
    return fits


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("h", [0, 1, 2, 3])
def test_a_shared_memo_replays_the_top_two_rollins(monkeypatch, seed, h):
    # a memo-backed query equals a memo-free one whose roll-ins with a key
    # drawn before are replaced by that key's stored samples, with the
    # actions above the roll-in layer taken from the query's own greedy
    # layers; layers h and h-1 are drawn by the first query only, a lower
    # layer once per greedy suffix
    psdp_module = importlib.import_module("voxlab.psdp")
    M, Phi, covers, radius = memo_instance(seed, h)
    rng = np.random.default_rng(seed + 50)
    queries = [[rng.standard_normal((M.n_states(t), M.A)) for t in range(h + 1)]
               for _ in range(3)]
    # top-layer rewards, as the spanner asks, share deeper suffixes more often
    queries += [top_layer_rewards(M, h, rng.standard_normal((M.n_states(h), M.A)))
                for _ in range(3)]
    n, shared, stored = 90, {}, {}
    recording, replaying = keyed_rollins(stored)
    monkeypatch.setattr(psdp_module, "sample_trajectories", recording)
    counter = EpisodeCounter()
    psdp(M, h, queries[0], Phi, radius, covers, n, np.random.default_rng(1),
         counter=counter, shared=shared)
    assert counter.count == n * (h + 1) == n * len(stored)

    fits = record_regressions(monkeypatch)
    for q, tabs in enumerate(queries[1:]):
        before, runs = dict(stored), []
        for memo, fake in ((None, replaying(before)), (shared, recording)):
            monkeypatch.setattr(psdp_module, "sample_trajectories", fake)
            run_rng, counter = np.random.default_rng(2 + q), EpisodeCounter()
            fits.clear()
            pi = psdp(M, h, tabs, Phi, radius, covers, n, run_rng,
                      counter=counter, shared=memo)
            runs.append((pi, run_rng.bit_generator.state, counter.count, list(fits)))
        (want, want_state, want_count, want_fits), (got, got_state, got_count, got_fits) = runs
        assert got_fits == want_fits
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.tables, want.tables))
        assert got_state == want_state
        drawn = [key[0] for key in stored if key not in before]
        assert got_count == want_count == n * len(drawn)
        assert all(t < h - 1 for t in drawn) and len(drawn) <= max(h - 1, 0)
    assert len(shared) == len(stored)


@pytest.mark.parametrize("h", [0, 1, 3])
def test_a_repeated_query_draws_nothing_and_returns_the_same_policy(h):
    M, Phi, covers, radius = memo_instance(3, h)
    rng = np.random.default_rng(4)
    tabs = [rng.standard_normal((M.n_states(t), M.A)) for t in range(h + 1)]
    shared, runs = {}, []
    for seed in (5, 6):
        run_rng, counter = np.random.default_rng(seed), EpisodeCounter()
        before = run_rng.bit_generator.state
        pi = psdp(M, h, tabs, Phi, radius, covers, 60, run_rng, counter=counter,
                  shared=shared)
        runs.append((pi, counter.count, run_rng.bit_generator.state == before))
    (first, first_count, _), (again, again_count, untouched) = runs
    assert first_count == 60 * (h + 1)
    assert again_count == 0 and untouched
    assert [t.tobytes() for t in again.tables] == [t.tobytes() for t in first.tables]


def test_queries_sharing_the_greedy_layers_above_layer_0_share_its_rollin(monkeypatch):
    # at h = 3, with the fits on layers 1..2 stubbed to return the query's
    # reward tables there, the greedy actions on those layers are the
    # tables' argmax, so rescaled tables keep them and share the roll-ins
    # of every layer, while another argmax at layer 2 draws layers 1 and 0
    # afresh; each query equals a memo-free one replaying the keys drawn
    # before it, so layer 0's returns read the query's own rewards and
    # greedy actions on the stored samples
    psdp_module = importlib.import_module("voxlab.psdp")
    M, Phi, covers, _ = memo_instance(0, 3)
    rng = np.random.default_rng(7)
    tabs = [rng.standard_normal((M.n_states(t), M.A)) for t in range(4)]
    flipped = tabs[2].copy()
    flipped[0] = -flipped[0]  # row 0's argmax moves to its argmin
    shared, stored, runs = {}, {}, []
    recording, replaying = keyed_rollins(stored)
    fits = record_regressions(monkeypatch)
    recorded_fit = psdp_module.fit_value_class

    def reward_above_layer_0(Phi, t, cells, sums, radius):
        fit = recorded_fit(Phi, t, cells, sums, radius)
        return fit if t == 0 else dataclasses.replace(fit, q_table=query[t])

    monkeypatch.setattr(psdp_module, "fit_value_class", reward_above_layer_0)
    for query in (tabs, [-tabs[0], 3.0 * tabs[1], 2.0 * tabs[2], -tabs[3]],
                  tabs[:2] + [flipped, tabs[3]]):
        before = dict(stored)
        monkeypatch.setattr(psdp_module, "sample_trajectories", replaying(before))
        want = psdp(M, 3, query, Phi, 1.5, covers, 80, np.random.default_rng(8))
        want_fits = list(fits)
        fits.clear()
        monkeypatch.setattr(psdp_module, "sample_trajectories", recording)
        got = psdp(M, 3, query, Phi, 1.5, covers, 80, np.random.default_rng(8),
                   shared=shared)
        assert fits == want_fits
        fits.clear()
        assert [t.tobytes() for t in got.tables] == [t.tobytes() for t in want.tables]
        runs.append((got, [key[0] for key in stored if key not in before],
                     len(shared)))
    (first, drawn, keys), (rescaled, re_drawn, re_keys), (_, other_drawn, other_keys) = runs
    assert (drawn, keys) == ([3, 2, 1, 0], 4)
    assert (re_drawn, re_keys) == ([], 4)
    assert not np.array_equal(first.table(3), rescaled.table(3))
    assert (other_drawn, other_keys) == ([1, 0], 6)


def test_a_query_builds_each_greedy_table_once(monkeypatch):
    # an h = 4 query builds one greedy table per layer, 5 in all, and every
    # lower layer's tail and the returned policy share those tables
    psdp_module = importlib.import_module("voxlab.psdp")
    M = small_env(seed=0, H=6, A=3, d=2, states=(3, 4, 3, 4, 3, 3))
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(0))
    covers = [PolicyDistribution([Policy.empty(0)], [1.0])] + [
        PolicyDistribution([Policy.uniform(M)], [1.0])] * 4
    built, tails = [], []
    from_actions = Policy.from_actions

    def counted(mdp, actions, lo=0):
        pi = from_actions(mdp, actions, lo)
        built.extend(pi.tables)
        return pi

    def recording(M, P, n, rng, upto, tail=None, counter=None):
        tails.append(tail)
        return sample_trajectories(M, P, n, rng, upto, tail, counter=counter)

    monkeypatch.setattr(Policy, "from_actions", staticmethod(counted))
    monkeypatch.setattr(psdp_module, "sample_trajectories", recording)
    tabs = [np.random.default_rng(t).standard_normal((M.n_states(t), M.A))
            for t in range(5)]
    pi = psdp(M, 4, tabs, Phi, 1.0, covers, 50, np.random.default_rng(9))
    assert len(built) == 5
    assert all(a is b for a, b in zip(pi.tables, built[::-1]))
    assert [tail.lo for tail in tails] == [4, 3, 2, 1, 0]
    for tail in tails:
        assert all(a is b for a, b in zip(tail.tables[1:], pi.tables[tail.lo + 1:]))
        assert len(tail.tables) == 5 - tail.lo


def counted_factors(monkeypatch):
    """Make psdp's `ObservedCells` count the factors they build, in the list
    returned.  Rep-learn builds its cells through its own binding of the
    class, so its factors are not counted."""
    psdp_module = importlib.import_module("voxlab.psdp")
    built = []

    class Counted(psdp_module.ObservedCells):
        def factor(self, T):
            fac = super().factor(T)
            if fac is not getattr(self, "last", None):
                self.last = fac
                built.append(fac.Z.shape)
            return fac

    monkeypatch.setattr(psdp_module, "ObservedCells", Counted)
    return built


def test_one_cells_object_builds_one_factor_per_consecutive_stack(monkeypatch):
    # fits on one ObservedCells equal fits on fresh ones bit for bit, and it
    # builds a factor only for a stack other than the last one it was
    # given; layers 0 and 1 share a shape, so a factor kept by shape goes
    # stale
    psdp_module = importlib.import_module("voxlab.psdp")
    M = small_env(seed=0, H=4, A=2, d=2, states=(3, 3, 3, 3))
    rng = np.random.default_rng(1)
    Phi, other = (make_feature_class(M, n_decoys=2, rng=rng) for _ in range(2))
    counts = rng.integers(0, 5, size=(3, 2))
    counts[0, 0] = 0
    sums = rng.standard_normal((3, 2))
    built = counted_factors(monkeypatch)
    cells = psdp_module.ObservedCells(counts)
    order = [(Phi, 0), (Phi, 0), (Phi, 1), (Phi, 1), (other, 1), (Phi, 1), (Phi, 0)]
    for cls, t in order:
        got = fit_value_class(cls, t, cells, sums, 0.3)
        want = fit_value_class(cls, t, psdp_module.ObservedCells(counts), sums, 0.3)
        assert (got.phi_index, got.w.tobytes(), got.q_table.tobytes(), got.loss) == (
            want.phi_index, want.w.tobytes(), want.q_table.tobytes(), want.loss)
    assert len(built) == 5 + len(order)


def test_a_spanrl_design_builds_one_factor_per_memoised_chain(monkeypatch):
    # each chain in a SpanRL design's memo below its top layer is fitted, and
    # the queries that replay a chain reuse its factor; the one top-layer
    # chain per design is drawn but never fitted
    from voxlab.drivers import SpanrlSchedule, run_spanrl
    from voxlab.replearn import RepLearnConfig
    from voxlab.simenv import combination_lock

    built = counted_factors(monkeypatch)
    schedule = SpanrlSchedule(n_replearn=2000, n_estvec=2000, n_psdp=2000,
                              replearn=RepLearnConfig(restarts=2, grad_steps=10))
    for seed in range(2):
        M = combination_lock(5, 4, 2, seed)
        Phi = make_feature_class(M, n_decoys=2, rng=np.random.default_rng(seed))
        built.clear()
        log = run_spanrl(M, Phi, 0.005, schedule, np.random.default_rng(100 + seed)).log
        below_top = sum(row["psdp_draws"] for row in log) - len(log)
        assert len(built) == below_top
        assert sum(row["opt_calls"] * row["h"] for row in log) > below_top


def test_no_query_fits_its_top_layer(monkeypatch):
    # layer h's Q-function is its reward: every query fits layers h-1..0 once
    # each and never layer h, called directly, with and without a memo, and
    # from VoX, SpanRL and optimize_reward
    from voxlab import drivers
    from voxlab.drivers import (
        CoverSet,
        SpanrlSchedule,
        VoxSchedule,
        optimize_reward,
        run_spanrl,
        run_vox,
    )
    from voxlab.replearn import RepLearnConfig

    fits, queries = record_regressions(monkeypatch), []

    def recorded_psdp(M, h, *args, **kwargs):
        fits.clear()
        pi = psdp(M, h, *args, **kwargs)
        queries.append((h, [f[0] for f in fits]))
        return pi

    monkeypatch.setattr(drivers, "psdp", recorded_psdp)
    M, Phi, covers, radius = memo_instance(0, 3)
    rng = np.random.default_rng(5)
    for shared in (None, {}):
        for _ in range(2):
            tabs = [rng.standard_normal((M.n_states(t), M.A)) for t in range(4)]
            recorded_psdp(M, 3, tabs, Phi, radius, covers, 60, rng, shared=shared)
    direct = len(queries)
    M = small_env(seed=8, H=4, A=2, d=2, states=(3, 4, 4, 4), boost=0.6)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(8))
    replearn = RepLearnConfig(restarts=2, grad_steps=10)
    run_vox(M, Phi, VoxSchedule(K=1, gamma=1e-3, n_replearn=600, n_estmat=400,
                                n_psdp=600, fw_max_iters=20, replearn=replearn), rng)
    vox = len(queries)
    run_spanrl(M, Phi, 0.1, SpanrlSchedule(n_replearn=600, n_estvec=400, n_psdp=600,
                                           replearn=replearn), rng)
    spanrl = len(queries)
    unif = CoverSet(kind="vox", H=M.H, layers=[
        PolicyDistribution([Policy.uniform(M)], [1.0])] * M.H)
    optimize_reward(M, unif, [np.array([0.6, 0.8])] * 3, Phi, 300, rng)
    assert direct == 4 and vox > direct and spanrl > vox and len(queries) == spanrl + 1
    assert {h for h, _ in queries[direct:spanrl]} == {0, 1}
    assert queries[-1][0] == 2
    for h, layers in queries:
        assert layers == list(range(h - 1, -1, -1)), (h, layers)


def test_a_memo_shared_across_query_shapes_replays_only_the_keys_they_share(
        monkeypatch):
    # a memo keyed by everything a draw reads may be shared by queries on
    # another h, n, MDP (an equal copy counts as another) or cover at some
    # layer: each query equals a memo-free one that replays exactly the keys
    # drawn before it, in policy bytes, generator state and episode count,
    # and none raises
    psdp_module = importlib.import_module("voxlab.psdp")
    for h in (2, 3):
        M, Phi, covers, radius = memo_instance(0, h)
        tabs = [np.zeros((M.n_states(t), M.A)) for t in range(h + 1)]
        copied = [PolicyDistribution(D.policies, D.weights) for D in covers]
        other_M = small_env(seed=0, H=5, A=3, d=2, states=(3, 4, 3, 4, 3))
        changed = [covers[:t] + [copied[t]] + covers[t + 1:] for t in range(h + 1)]
        queries = [(M, h, tabs, Phi, radius, covers, 40),
                   (M, h - 1, tabs[:h], Phi, radius, covers[:h], 40),
                   (M, h, tabs, Phi, radius, covers, 41),
                   (other_M, h, tabs, Phi, radius, covers, 40)] + [
                      (M, h, tabs, Phi, radius, cov, 40) for cov in changed] + [
                      # a cover above h is not read, so it may change
                      (M, h, tabs, Phi, radius, covers + copied[:1], 40)]
        shared, stored, drawn = {}, {}, []
        recording, replaying = keyed_rollins(stored)
        for q, args in enumerate(queries):
            before, runs = dict(stored), []
            for memo, fake in ((None, replaying(before)), (shared, recording)):
                monkeypatch.setattr(psdp_module, "sample_trajectories", fake)
                rng, counter = np.random.default_rng(2 + q), EpisodeCounter()
                pi = psdp(*args, rng, counter=counter, shared=memo)
                runs.append(([t.tobytes() for t in pi.tables],
                             rng.bit_generator.state, counter.count))
            assert runs[0] == runs[1]
            new = [key[0] for key in stored if key not in before]
            assert runs[1][2] == args[6] * len(new)
            drawn.append(new)
        assert len(shared) == len(stored)
        # the other h, n and MDP share nothing; zero rewards make every
        # greedy suffix the same, so a changed cover at layer t draws layer
        # t alone, and the cover above h draws nothing
        assert drawn[1:4] == [list(range(h - 1, -1, -1)),
                              list(range(h, -1, -1)), list(range(h, -1, -1))]
        assert drawn[4:] == [[t] for t in range(h + 1)] + [[]]


def test_psdp_horizon_zero_is_exact_greedy(env):
    rng = np.random.default_rng(3)
    tab = rng.random((env.n_states(0), env.A))
    covers = [PolicyDistribution([Policy.empty(0)], [1.0])]
    pi = psdp(env, 0, [tab], FeatureClass([list(env.phi)]), 1.0, covers, 50,
              np.random.default_rng(4))
    got = exact_policy_value(env, pi, [tab])
    best = dp_optimal_value(env, [tab])
    assert abs(got - best) < 1e-12


def test_psdp_zero_rewards_returns_a_valid_policy(env):
    tabs = [np.zeros((env.n_states(t), env.A)) for t in range(3)]
    pi = psdp(env, 2, tabs, FeatureClass([list(env.phi)]), 1.0,
              all_det_covers(env, 2), 30, np.random.default_rng(5))
    assert pi.covers(0, 2)
    for t in range(3):
        assert np.allclose(pi.table(t).sum(axis=1), 1.0)


def test_psdp_tabular_class_is_near_optimal():
    # indicator features realize any Q table, so with all-roll-in covers and
    # a generous budget the greedy output should be close to the DP optimum
    rng = np.random.default_rng(6)
    losses = []
    for seed in range(5):
        M = small_env(seed=seed, H=3, A=2, d=2, states=(3, 4, 4))
        tabs = [rng.random((M.n_states(t), M.A)) for t in range(3)]
        Phi = onehot_feature_class(M)
        pi = psdp(M, 2, tabs, Phi, 3.0 * np.sqrt(4 * M.A), all_det_covers(M, 2),
                  4000, np.random.default_rng(100 + seed))
        got = exact_policy_value(M, pi, tabs)
        best = dp_optimal_value(M, tabs)
        losses.append(best - got)
    assert max(losses) <= 0.05


def test_psdp_realizability_of_returns(env):
    # under a linear-in-phi* reward the optimal Q at the top regressed layer
    # is linear in phi*: check the planted-weight identity w_t = theta
    theta = np.array([0.3, -0.7])
    tabs = top_layer_rewards(env, 1, linear_reward(theta, env.phi[1]))
    pi_star = dp_optimal_policy(env, tabs)
    q = exact_q_tables(env, pi_star, tabs)
    # at the reward layer Q equals the clipped linear table itself
    assert np.allclose(q[1], tabs[1], atol=1e-12)


def test_psdp_performance_difference_decomposition():
    # value gap against DP equals the sum over layers of the expected greedy
    # advantage violations; with exact per-layer greedy tables the gap is 0
    for seed in range(3):
        M = small_env(seed=seed, H=3, A=2, d=2, states=(2, 3, 3))
        rng = np.random.default_rng(7 + seed)
        tabs = [rng.random((M.n_states(t), M.A)) for t in range(3)]
        pi_star = dp_optimal_policy(M, tabs)
        q = exact_q_tables(M, pi_star, tabs)
        greedy_tabs = []
        for t in range(3):
            g = np.zeros_like(q[t])
            g[np.arange(g.shape[0]), q[t].argmax(axis=1)] = 1.0
            greedy_tabs.append(g)
        pi_greedy = Policy(0, greedy_tabs)
        gap = dp_optimal_value(M, tabs) - exact_policy_value(M, pi_greedy, tabs)
        assert abs(gap) <= 1e-10


def test_psdp_argument_validation(env):
    tabs = [np.zeros((env.n_states(0), env.A))]
    Phi = FeatureClass([list(env.phi)])
    covers = [PolicyDistribution([Policy.empty(0)], [1.0])]
    with pytest.raises(VoxlabError):
        psdp(env, 0, tabs, Phi, 1.0, covers, 0, np.random.default_rng(8))
    with pytest.raises(VoxlabError):
        psdp(env, 1, tabs, Phi, 1.0, covers, 10, np.random.default_rng(9))


def test_psdp_suboptimality_shrinks_with_samples():
    # median value gap over 8 seeds should be non-increasing as n grows
    M = small_env(seed=17, H=3, A=2, d=2, states=(3, 3, 3))
    rng = np.random.default_rng(10)
    tabs = [rng.random((M.n_states(t), M.A)) for t in range(3)]
    Phi = onehot_feature_class(M)
    covers = all_det_covers(M, 2)
    best = dp_optimal_value(M, tabs)
    med = {}
    for n in (40, 400, 4000):
        gaps = []
        for s in range(8):
            pi = psdp(M, 2, tabs, Phi, 3.0 * np.sqrt(9 * M.A), covers, n,
                      np.random.default_rng(1000 + s))
            gaps.append(best - exact_policy_value(M, pi, tabs))
        med[n] = float(np.median(gaps))
    assert med[4000] <= med[40] + 1e-9
    assert med[4000] <= 0.02
