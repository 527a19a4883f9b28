"""Backward-regression policy search and its regression subroutines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxlab import FeatureClass, Policy, PolicyDistribution, VoxlabError
from voxlab.psdp import (
    BallLeastSquares,
    RegressionData,
    RewardSpec,
    ValueClass,
    ball_constrained_least_squares,
    fit_value_class,
    psdp,
)
from voxlab.simenv import exact_policy_value, exact_q_tables

from conftest import onehot_feature_class, small_env, uniform_mixture
from oracles import dp_optimal_policy, dp_optimal_value, oracle_ball_lsq


def all_det_covers(M, h):
    """Uniform mixture over all deterministic roll-ins, one mixture per layer."""
    from oracles import enumerate_det_policies

    covers = []
    for t in range(h + 1):
        if t == 0:
            covers.append(PolicyDistribution.point_mass(Policy.empty(0)))
        else:
            pis = enumerate_det_policies(M, t - 1)
            covers.append(uniform_mixture(pis))
    return covers


# ----------------------------------------------- ball-constrained regression


def factored_equals_one_shot(Z, y, radius, weights=None):
    """Solve through one factorization reused for several targets and radii,
    and check every answer is bit-identical to a one-shot solve."""
    fac = BallLeastSquares(Z, weights)
    y2 = np.asarray(y, dtype=float)[::-1] * 1.5
    for target, r in ((y, radius), (y2, radius), (y, 0.5 * radius), (y, radius)):
        got = fac.solve(target, r)
        want = ball_constrained_least_squares(Z, target, r, weights=weights)
        assert np.array_equal(got, want)
    return fac.solve(y, radius)


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


# ----------------------------------------------------------- reward specs


def test_reward_spec_bounds_and_clipping(env):
    feat = env.phi[1]
    mat = np.array([[2.0, 0.0], [0.0, 1.0]])
    spec = RewardSpec.quadratic(mat, feat, 1)
    tab = spec.layer_table(env, 1)
    assert tab.min() >= 0.0 and tab.max() <= spec.bound() + 1e-12
    assert np.allclose(spec.layer_table(env, 0), 0.0)
    assert spec.evaluate(0, 0, 1) == pytest.approx(tab[0, 0])

    theta = np.array([0.6, -0.8])
    lin = RewardSpec.linear(theta, feat, 1)
    tab = lin.layer_table(env, 1)
    assert np.abs(tab).max() <= 1.0 + 1e-12
    assert lin.bound() == pytest.approx(1.0)

    with pytest.raises(VoxlabError):
        RewardSpec.quadratic(np.ones((2, 3)), feat, 1)
    with pytest.raises(VoxlabError):
        RewardSpec.table([])


def test_reward_table_kind_shapes(env):
    tabs = [np.ones((env.n_states(t), env.A)) for t in range(2)]
    spec = RewardSpec.table(tabs)
    assert spec.top_layer == 1
    assert spec.bound() == 1.0
    with pytest.raises(VoxlabError):
        spec.layer_table(env, 0) if env.n_states(0) != tabs[0].shape[0] else \
            RewardSpec.table([np.ones((99, env.A))]).layer_table(env, 0)


# ------------------------------------------------------- class fitting


def test_fit_singleton_returns_fixed_table(env):
    table = np.arange(env.n_states(1) * env.A, dtype=float).reshape(
        env.n_states(1), env.A)
    data = RegressionData.from_samples(
        1, [0, 0, 1], [0, 1, 0], [5.0, 5.0, 5.0], env.n_states(1), env.A)
    fit = fit_value_class(data, ValueClass.singleton(table))
    assert fit.phi_index is None
    assert np.array_equal(fit.q_table, table)


def test_fit_ball_recovers_planted_weights(env):
    rng = np.random.default_rng(1)
    w_true = np.array([0.4, -0.3])
    tab = env.phi[1]
    xs = rng.integers(0, env.n_states(1), size=400)
    acts = rng.integers(0, env.A, size=400)
    ys = tab[xs, acts] @ w_true
    data = RegressionData.from_samples(1, xs, acts, ys, env.n_states(1), env.A)
    fit = fit_value_class(data, ValueClass.ball(FeatureClass([list(env.phi)]), 1.0))
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
    data = RegressionData.from_samples(1, xs, acts, ys, env.n_states(1), env.A)
    fit = fit_value_class(data, ValueClass.ball(Phi, 1.0))
    assert fit.phi_index == 0


def test_regression_data_aggregation_preserves_loss():
    # aggregated weighted loss + offset equals the raw per-sample loss
    xs = np.array([0, 0, 1, 1, 1])
    acts = np.array([0, 0, 0, 1, 1])
    ys = np.array([1.0, 3.0, 2.0, 0.0, 1.0])
    data = RegressionData.from_samples(0, xs, acts, ys, 2, 2)
    table = np.array([[0.5, 0.0], [1.0, 2.0]])
    pred_raw = table[xs, acts]
    raw_loss = float(((pred_raw - ys) ** 2).sum())
    fit = fit_value_class(data, ValueClass.singleton(table))
    assert fit.loss == pytest.approx(raw_loss, abs=1e-12)
    with pytest.raises(VoxlabError):
        RegressionData.from_samples(0, [], [], [], 2, 2)


# ------------------------------------------------------------------ psdp


def test_psdp_horizon_zero_is_exact_greedy(env):
    rng = np.random.default_rng(3)
    tab = rng.random((env.n_states(0), env.A))
    spec = RewardSpec.table([tab])
    classes = [ValueClass.singleton(tab)]
    covers = [PolicyDistribution.point_mass(Policy.empty(0))]
    pi = psdp(env, 0, spec, classes, covers, 50, np.random.default_rng(4))
    got = exact_policy_value(env, pi, [tab])
    best = dp_optimal_value(env, [tab])
    assert abs(got - best) < 1e-12


def test_psdp_zero_rewards_returns_a_valid_policy(env):
    spec = RewardSpec.table([np.zeros((env.n_states(t), env.A)) for t in range(3)])
    classes = [ValueClass.singleton(spec.layer_table(env, t)) for t in range(3)]
    pi = psdp(env, 2, spec, classes, all_det_covers(env, 2), 30,
              np.random.default_rng(5))
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
        spec = RewardSpec.table(tabs)
        Phi = onehot_feature_class(M)
        classes = [
            ValueClass.ball(Phi, radius=3.0 * np.sqrt(M.n_states(t) * M.A))
            for t in range(3)
        ]
        pi = psdp(M, 2, spec, classes, all_det_covers(M, 2), 4000,
                  np.random.default_rng(100 + seed))
        got = exact_policy_value(M, pi, tabs)
        best = dp_optimal_value(M, tabs)
        losses.append(best - got)
    assert max(losses) <= 0.05


def test_psdp_realizability_of_returns(env):
    # under a linear-in-phi* reward the optimal Q at the top regressed layer
    # is linear in phi*: check the planted-weight identity w_t = theta
    theta = np.array([0.3, -0.7])
    spec = RewardSpec.linear(theta, env.phi[1], 1)
    tabs = spec.all_tables(env)
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
    spec = RewardSpec.table([np.zeros((env.n_states(0), env.A))])
    classes = [ValueClass.singleton(spec.layer_table(env, 0))]
    covers = [PolicyDistribution.point_mass(Policy.empty(0))]
    with pytest.raises(VoxlabError):
        psdp(env, 0, spec, classes, covers, 0, np.random.default_rng(8))
    with pytest.raises(VoxlabError):
        psdp(env, 1, spec, classes, covers, 10, np.random.default_rng(9))


def test_psdp_suboptimality_shrinks_with_samples():
    # median value gap over 8 seeds should be non-increasing as n grows
    M = small_env(seed=17, H=3, A=2, d=2, states=(3, 3, 3))
    rng = np.random.default_rng(10)
    tabs = [rng.random((M.n_states(t), M.A)) for t in range(3)]
    spec = RewardSpec.table(tabs)
    Phi = onehot_feature_class(M)
    classes = [ValueClass.ball(Phi, radius=3.0 * np.sqrt(9 * M.A)) for _ in range(3)]
    covers = all_det_covers(M, 2)
    best = dp_optimal_value(M, tabs)
    med = {}
    for n in (40, 400, 4000):
        gaps = []
        for s in range(8):
            pi = psdp(M, 2, spec, classes, covers, n, np.random.default_rng(1000 + s))
            gaps.append(best - exact_policy_value(M, pi, tabs))
        med[n] = float(np.median(gaps))
    assert med[4000] <= med[40] + 1e-9
    assert med[4000] <= 0.02
