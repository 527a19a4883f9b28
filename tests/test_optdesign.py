"""Frank-Wolfe optimal design over oracle-reached PSD families."""

import itertools
import math

import numpy as np
import pytest

from voxlab import BudgetError, Policy, VoxlabError
from voxlab.evalcover import check_design_on_policies
from voxlab.optdesign import _line_search, fw_iteration_bound, fw_optdesign

from conftest import policy_design_oracles, small_env
from oracles import oracle_design_certificate


def exact_oracles(Ws):
    """Conforming oracle pair that enumerates an explicit PSD family."""
    Ws = [np.asarray(W, dtype=float) for W in Ws]

    def lin_opt(Q):
        return int(np.argmax([np.trace(Q @ W) for W in Ws]))

    def lin_est(P):
        return sum(w * Ws[z] for z, w in P.items())

    return lin_opt, lin_est


def random_psd_family(rng, d, size, fro_max=1.0):
    fam = []
    for _ in range(size):
        G = rng.standard_normal((d, d))
        W = G @ G.T
        W *= rng.random() * fro_max / np.linalg.norm(W)
        fam.append(W)
    return fam


def test_iteration_bound_arithmetic():
    assert fw_iteration_bound(2.0, 0.1, 4) == 240
    # the termination bound grows like gamma^-2 log(1/gamma)
    assert fw_iteration_bound(2.0, 0.01, 4) > fw_iteration_bound(2.0, 0.1, 4)


def test_step_size_value():
    # each step maximizes log det(gamma I + (1 - a) W_P + a W_z) over a in
    # [0, 1], floored at mu = C gamma^2 d / 8: force exactly one mixing step
    # along a segment that peaks inside (0, 1), then terminate, and compare
    # the step with the best of a fine grid
    gamma = 0.01
    Ws = [np.diag([0.9, 1e-3]), np.diag([1e-3, 0.5]), 1e-3 * np.eye(2)]
    calls = {"n": 0}

    def lin_opt(Q):
        calls["n"] += 1
        return {1: 0, 2: 1}.get(calls["n"], 2)

    def lin_est(P):
        return sum(w * Ws[z] for z, w in P.items())

    state = fw_optdesign(lin_opt, lin_est, C=2.0, gamma=gamma, d=2, max_iters=50)
    mu = 2.0 * gamma**2 * 2 / 8.0
    assert state.iterations == 2 and len(state.steps) == 1
    a = state.steps[0]
    assert mu <= a < 1.0
    assert state.P[1] == pytest.approx(a, abs=1e-12)
    assert state.P[0] == pytest.approx(1.0 - a, abs=1e-12)

    def logdet(a):
        return np.linalg.slogdet(gamma * np.eye(2) + (1.0 - a) * Ws[0] + a * Ws[1])[1]

    grid = np.linspace(0.0, 1.0, 100_001)
    best = grid[np.argmax(logdet(grid[:, None, None]))]
    assert abs(a - best) <= 1e-5
    assert logdet(a) >= logdet(best) - 1e-12
    # the mixed-in estimate is the design's last: its log det is recorded
    assert state.trace[1][1] == pytest.approx(logdet(a), abs=1e-12)


def numpy_line_search(L, D, mu):
    """The line search with its slope summed by `np.sum`, frozen as the
    reference for the float fold."""
    lam = np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, D).T))

    def slope(a):
        return float(np.sum(lam / (1.0 + a * lam)))

    if slope(1.0) >= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return max(lo, mu)


@pytest.mark.parametrize("d", range(1, 8))
def test_line_search_equals_the_numpy_bisection_bit_for_bit(d):
    # the slope is folded left to right on Python floats, which np.sum
    # matches below 8 terms; segments from gamma I + W_P to gamma I + W_z
    # whose optimum lies at 1, below the floor mu, or (d >= 2) inside
    rng = np.random.default_rng(d)
    bisected = inside = 0
    for trial in range(300):
        G, H = rng.standard_normal((2, d, d)) * rng.uniform(0.05, 1.0, (2, 1, 1))
        gamma = 10.0 ** rng.uniform(-3, -1)
        West, Wz = G @ G.T / d, H @ H.T / d
        L = np.linalg.cholesky(gamma * np.eye(d) + West)
        mu = (0.0, 1e-4, 0.3)[trial % 3]
        got, want = _line_search(L, Wz - West, mu), numpy_line_search(L, Wz - West, mu)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        bisected += want < 1.0
        inside += mu < want < 1.0
    assert bisected >= 50 and (d == 1 or inside >= 20)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("C", [2.0, 1.5, 1.01])
def test_line_search_design_meets_kiefer_wolfowitz_with_exact_oracles(seed, C):
    # Kiefer-Wolfowitz: log det(gamma I + W_P) is concave in P, so a design
    # falls short of the optimum by at most its duality gap sup_z Tr(M^-1
    # W_z) - Tr(M^-1 W_P), and no certificate is below the design's own
    # trace d - gamma Tr(M^-1).  With exact oracles the line-search design
    # certifies below (1 + C) d, above that floor, and within its gap of
    # the optimum over every policy, which is bracketed here by 400 exact
    # line-search steps over every deterministic policy's moment
    from oracles import enumerate_det_policies
    from voxlab.simenv import exact_second_moment

    gamma, d = 0.05, 2
    M = small_env(seed=seed, H=3, A=2, d=d, states=(2, 3, 3))
    feat = M.phi[1]
    state = fw_optdesign(*policy_design_oracles(M, feat, 1)[:2], C=C, gamma=gamma, d=d)
    Minv = np.linalg.inv(state.M)
    own = float(np.trace(Minv @ (state.M - gamma * np.eye(d))))
    assert own == pytest.approx(d - gamma * np.trace(Minv), abs=1e-9)
    assert own - 1e-9 <= state.certificate <= (1.0 + C) * d
    logdet = np.linalg.slogdet(state.M)[1]

    Ws = np.array([exact_second_moment(M, pi, feat, 1)
                   for pi in enumerate_det_policies(M, 1)])
    w = np.full(len(Ws), 1.0 / len(Ws))
    grid = np.linspace(0.0, 1.0, 2001)[:, None, None]
    for _ in range(400):
        Mp = gamma * np.eye(d) + np.tensordot(w, Ws, axes=1)
        z = int(np.argmax(np.einsum("de,ked->k", np.linalg.inv(Mp), Ws)))
        a = grid[np.argmax(np.linalg.slogdet(
            Mp + grid * (Ws[z] - Mp + gamma * np.eye(d)))[1]), 0, 0]
        w = (1.0 - a) * w
        w[z] += a
    Mp = gamma * np.eye(d) + np.tensordot(w, Ws, axes=1)
    traces = np.einsum("de,ked->k", np.linalg.inv(Mp), Ws)
    best = np.linalg.slogdet(Mp)[1]
    best_gap = traces.max() - w @ traces
    assert logdet <= best + best_gap + 1e-9
    assert logdet >= best - (state.certificate - own) - 1e-9


def test_singleton_family_terminates_immediately():
    W = np.eye(3) * 0.5
    state = fw_optdesign(*exact_oracles([W]), C=2.0, gamma=0.1, d=3)
    assert state.iterations == 1
    assert state.support_size == 1
    assert abs(sum(state.P.values()) - 1.0) < 1e-12
    # certificate of the singleton: Tr((gamma I + W)^-1 W) = d*w/(gamma+w)
    want = 3 * 0.5 / (0.1 + 0.5)
    assert state.certificate == pytest.approx(want, abs=1e-10)
    assert state.certificate <= (1.0 + 2.0) * 3
    # the recorded log-det is that of the regularized design matrix
    sign, want = np.linalg.slogdet(0.1 * np.eye(3) + W)
    assert sign > 0
    assert state.trace[0][1] == pytest.approx(want, abs=1e-10)


def test_random_psd_families_reach_certificate():
    rng = np.random.default_rng(0)
    for trial in range(20):
        d = 3
        Ws = random_psd_family(rng, d, 8)
        state = fw_optdesign(*exact_oracles(Ws), C=2.0, gamma=0.05, d=d)
        cert = oracle_design_certificate(state.P, Ws, 0.05)
        assert cert <= (1.0 + 2.0) * d + 1e-9
        assert state.iterations <= fw_iteration_bound(2.0, 0.05, d)
        # one step per mixing round, never below mu = C gamma^2 d / 8
        assert len(state.steps) == state.iterations - 1
        assert all(2.0 * 0.05**2 * d / 8.0 <= a <= 1.0 for a in state.steps)


def test_objective_trace_is_monotone():
    rng = np.random.default_rng(1)
    Ws = random_psd_family(rng, 3, 12)
    state = fw_optdesign(*exact_oracles(Ws), C=1.5, gamma=0.05, d=3)
    logdets = [row[1] for row in state.trace]
    diffs = np.diff(np.asarray(logdets))
    assert np.all(diffs >= -1e-9)


def test_budget_error_reports_bound():
    # a non-conforming oracle pair that never meets the certificate: the
    # estimator answers tiny for every mixture query but large for every
    # singleton probe, so the certificate stays pinned above (1+C)d
    d = 2
    calls = {"n": 0}

    def lin_opt(Q):
        return 7

    def lin_est(P):
        calls["n"] += 1
        if calls["n"] % 2 == 1:  # mixture query
            return 1e-6 * np.eye(d)
        return np.eye(d)  # probe query

    with pytest.raises(BudgetError) as exc:
        fw_optdesign(lin_opt, lin_est, C=2.0, gamma=0.1, d=d, max_iters=5)
    msg = str(exc.value)
    assert "5 iterations" in msg
    assert str(fw_iteration_bound(2.0, 0.1, d)) in msg
    # the error carries the iterations run and the last certificate, which
    # the capped-norm probe pins at d * (1.002 / sqrt(d)) / (0.1 + 1e-6)
    assert exc.value.iterations == 5
    assert exc.value.certificate == pytest.approx(
        d * (1.002 / np.sqrt(d)) / (0.1 + 1e-6), rel=1e-9)
    assert exc.value.layer is None and exc.value.log is None


def test_mixture_weights_stay_on_the_simplex():
    # a pair that never certifies (mixture estimate ~0, probe 0.7 I) runs
    # the full budget; every mixture lin_est sees must sum to 1 within 4
    # ulps, not drift by the rounding of each (1 - mu) * w mixing step
    d = 2
    picks = itertools.cycle(range(3))
    sums = []

    def lin_opt(Q):
        return next(picks)

    def lin_est(P):
        sums.append(math.fsum(P.values()))
        return 0.7 * np.eye(d) if len(sums) % 2 == 0 else 1e-12 * np.eye(d)

    with pytest.raises(BudgetError):
        fw_optdesign(lin_opt, lin_est, C=2.0, gamma=1e-3, d=d, max_iters=2000)
    assert len(sums) == 4000
    assert max(abs(s - 1.0) for s in sums) <= 4 * np.finfo(float).eps


def test_non_psd_estimates_are_rejected():
    d = 2

    def lin_opt(Q):
        return 0

    def lin_est(P):
        return np.array([[1.0, 0.0], [0.0, -1.0]])

    with pytest.raises(VoxlabError, match="lin_est output is not PSD"):
        fw_optdesign(lin_opt, lin_est, C=2.0, gamma=0.1, d=d)


def test_a_misshaped_estimate_is_rejected():
    with pytest.raises(VoxlabError, match=r"lin_est returned shape \(3, 3\), expected \(2, 2\)"):
        fw_optdesign(lambda Q: 0, lambda P: np.eye(3), C=2.0, gamma=0.1, d=2)


def test_a_singular_design_matrix_is_not_positive_definite():
    # at gamma = 0, features on the first axis alone leave the second
    # moment singular, and its Cholesky factor does not exist
    M = small_env(seed=0)
    feat = np.zeros((M.n_states(1), M.A, 2))
    feat[..., 0] = 1.0
    with pytest.raises(VoxlabError, match="design matrix is not positive definite"):
        check_design_on_policies(M, feat, Policy.uniform(M), gamma=0.0, C=2.0, h=1)


def test_parameter_validation():
    oracles = exact_oracles([np.eye(2)])
    with pytest.raises(VoxlabError):
        fw_optdesign(*oracles, C=1.0, gamma=0.1, d=2)  # C must exceed 1
    with pytest.raises(VoxlabError):
        fw_optdesign(*oracles, C=2.0, gamma=0.0, d=2)
    with pytest.raises(VoxlabError):
        fw_optdesign(*oracles, C=2.5, gamma=0.9, d=2)


def test_design_state_invariants():
    rng = np.random.default_rng(3)
    Ws = random_psd_family(rng, 2, 6)
    state = fw_optdesign(*exact_oracles(Ws), C=2.0, gamma=0.1, d=2)
    assert abs(sum(state.P.values()) - 1.0) < 1e-12
    assert all(w >= 0 for w in state.P.values())
    assert state.M.shape == (2, 2)
    assert np.linalg.eigvalsh(state.M).min() >= 0.1 - 1e-12  # gamma floor
    assert state.support_size == len(state.P)
    assert len(state.trace) == state.iterations


def test_frobenius_cap_scales_oversized_estimates():
    # an estimate above the allowed Frobenius norm is scaled down to the cap
    # 1 + C gamma^2 / 10 before it enters the design matrix
    W_big = np.eye(2) * 5.0

    def lin_opt(Q):
        return 0

    def lin_est(P):
        return W_big * sum(P.values())

    state = fw_optdesign(lin_opt, lin_est, C=2.0, gamma=0.3, d=2)
    fro_cap = 1.0 + 2.0 * 0.3**2 / 10.0
    want = 0.3 * np.eye(2) + W_big * fro_cap / np.linalg.norm(W_big)
    np.testing.assert_allclose(state.M, want, rtol=0, atol=1e-12)


def test_policy_keyed_design_matches_the_integer_indexed_one():
    # a lin_opt that returns a fresh Policy object on every call: keyed by
    # value, the design merges equal policies exactly as integer indices do
    from voxlab.simenv import argmax_policy, exact_second_moment

    for seed in range(4):
        M = small_env(seed=seed, H=3, A=2, d=2, states=(2, 3, 3))
        feat, returned = M.phi[1], []

        def lin_opt(Q):
            returned.append(argmax_policy(
                M, 1, np.einsum("xad,de,xae->xa", feat, Q, feat)))
            return returned[-1]

        def lin_est(P):
            return sum(w * exact_second_moment(M, pi, feat, 1) for pi, w in P.items())

        by_opt, by_est, interned = policy_design_oracles(M, feat, 1)
        want = fw_optdesign(by_opt, by_est, C=2.0, gamma=0.1, d=2)
        got = fw_optdesign(lin_opt, lin_est, C=2.0, gamma=0.1, d=2)
        assert got.iterations == want.iterations and got.trace == want.trace
        assert got.certificate == want.certificate
        assert list(got.P) == [interned[z] for z in want.P]
        assert list(got.P.values()) == list(want.P.values())
        assert np.array_equal(got.M, want.M)
        # each call returned a new object, and the first of equal ones is kept
        assert len({id(pi) for pi in returned}) == len(returned) > len(got.P)
        assert all(any(pi is r for r in returned) for pi in got.P)
        assert next(iter(got.P)) is returned[0]
