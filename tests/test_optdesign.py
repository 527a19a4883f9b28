"""Frank-Wolfe optimal design over oracle-reached PSD families."""

import itertools
import math

import numpy as np
import pytest

from voxlab import BudgetError, VoxlabError
from voxlab.optdesign import fw_iteration_bound, fw_optdesign

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
    # mu = C gamma^2 d / 8 enters through the support-weight update: force
    # exactly one mixing step, then terminate and read the new index weight
    Ws = [1e-3 * np.eye(2), 0.5 * np.eye(2), 1e-3 * np.eye(2)]
    calls = {"n": 0}

    def lin_opt(Q):
        calls["n"] += 1
        return {1: 0, 2: 1}.get(calls["n"], 2)

    def lin_est(P):
        return sum(w * Ws[z] for z, w in P.items())

    state = fw_optdesign(lin_opt, lin_est, C=2.0, gamma=0.1, d=2, max_iters=50)
    mu = 2.0 * 0.1**2 * 2 / 8.0
    assert mu == pytest.approx(0.005)
    assert 2.0 * 0.1**2 * 4 / 8.0 == pytest.approx(0.01)  # d = 4 variant
    assert state.iterations == 2
    assert state.P[1] == pytest.approx(mu, abs=1e-12)
    assert state.P[0] == pytest.approx(1.0 - mu, abs=1e-12)


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

    with pytest.raises(VoxlabError):
        fw_optdesign(lin_opt, lin_est, C=2.0, gamma=0.1, d=d)


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
