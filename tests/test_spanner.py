"""Approximate barycentric spanners over oracle-accessible vector families."""

import numpy as np
import pytest

from voxlab import BudgetError, VoxlabError
from voxlab.spanner import (
    robust_spanner,
    spanner_direction,
    spanner_rounds_bound,
    verify_spanner,
)

from oracles import oracle_cofactor_direction


def exact_vector_oracles(vectors):
    vectors = [np.asarray(v, dtype=float) for v in vectors]

    def lin_opt(theta):
        return int(np.argmax([theta @ v for v in vectors]))

    def lin_est(z):
        return vectors[z]

    return lin_opt, lin_est


def noisy_vector_oracles(vectors, eps_opt, rng):
    """lin_opt returns any index whose value is within eps_opt of the sup."""
    vectors = [np.asarray(v, dtype=float) for v in vectors]

    def lin_opt(theta):
        vals = np.array([theta @ v for v in vectors])
        ok = np.nonzero(vals >= vals.max() - eps_opt)[0]
        return int(rng.choice(ok))

    def lin_est(z):
        return vectors[z]

    return lin_opt, lin_est


def test_rounds_bound_arithmetic():
    assert spanner_rounds_bound(2.0, 0.1, 2) == 17
    assert spanner_rounds_bound(2.0, 0.05, 3) > spanner_rounds_bound(2.0, 0.1, 3)


def test_signed_basis_family_is_its_own_spanner():
    d = 3
    vectors = [e * s for e in np.eye(d) for s in (1.0, -1.0)]
    lin_opt, lin_est = exact_vector_oracles(vectors)
    state = robust_spanner(lin_opt, lin_est, C=2.0, eps=0.01, d=d)
    # every family member is expressible with coefficients at most 1
    checks = verify_spanner(state.W, vectors, C=2.0, eps=0.01)
    assert all(c["passed"] for c in checks)
    assert max(np.abs(c["beta"]).max() for c in checks) <= 1.0 + 0.1
    assert state.rounds <= spanner_rounds_bound(2.0, 0.01, d)


def test_random_families_meet_guarantee():
    rng = np.random.default_rng(0)
    for trial in range(10):
        d = 3
        raw = rng.standard_normal((12, d))
        vectors = [v / max(1.0, np.linalg.norm(v)) for v in raw]
        lin_opt, lin_est = exact_vector_oracles(vectors)
        state = robust_spanner(lin_opt, lin_est, C=2.0, eps=0.05, d=d)
        checks = verify_spanner(state.W, vectors, C=2.0, eps=0.05)
        assert all(c["passed"] for c in checks)
        assert max(c["residual"] for c in checks) <= 3 * 2.0 * d * 0.05 / 2 + 1e-9
        assert state.rounds <= spanner_rounds_bound(2.0, 0.05, d)


def test_noisy_oracle_still_meets_guarantee():
    rng = np.random.default_rng(1)
    for trial in range(6):
        d = 3
        raw = rng.standard_normal((10, d))
        vectors = [v / max(1.0, np.linalg.norm(v)) for v in raw]
        eps = 0.05
        lin_opt, lin_est = noisy_vector_oracles(vectors, eps / 2.0, rng)
        state = robust_spanner(lin_opt, lin_est, C=2.0, eps=eps, d=d)
        checks = verify_spanner(state.W, vectors, C=2.0, eps=eps)
        assert all(c["passed"] for c in checks)


def test_spanner_direction_is_replacement_determinant():
    rng = np.random.default_rng(2)
    for _ in range(10):
        W = rng.standard_normal((4, 4))
        i = int(rng.integers(4))
        theta = spanner_direction(W, i)
        ref = oracle_cofactor_direction(W, i)
        assert np.allclose(theta, ref, atol=1e-10)
        v = rng.standard_normal(4)
        Mod = W.copy()
        Mod[:, i] = v
        assert theta @ v == pytest.approx(np.linalg.det(Mod), abs=1e-9)


def test_spanner_direction_singular_matrix():
    # rank-deficient W: the cofactors are still replacement determinants
    W = np.zeros((3, 3))
    W[:, 0] = [1.0, 0.0, 0.0]
    W[:, 1] = [1.0, 0.0, 0.0]
    W[:, 2] = [0.0, 1.0, 0.0]
    theta = spanner_direction(W, 1)
    v = np.array([0.0, 0.0, 1.0])
    Mod = W.copy()
    Mod[:, 1] = v
    assert theta @ v == pytest.approx(np.linalg.det(Mod), abs=1e-12)


def test_spanner_direction_does_not_read_its_own_column():
    # overwriting column i leaves its direction unchanged bit for bit, so a
    # column whose neighbours have not moved repeats its query exactly
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        W = rng.standard_normal((d, d))
        i = int(rng.integers(d))
        theta = spanner_direction(W, i)
        W[:, i] = rng.standard_normal(d)
        assert spanner_direction(W, i).tobytes() == theta.tobytes()


def test_verify_spanner_trivials():
    W = np.eye(2)
    checks = verify_spanner(W, [np.array([0.5, 0.5])], C=2.0, eps=0.1)
    assert checks[0]["passed"]
    assert checks[0]["residual"] == pytest.approx(0.0, abs=1e-12)
    far = verify_spanner(W, [np.array([5.0, 0.0])], C=2.0, eps=0.0001)
    assert not far[0]["passed"]  # coefficient 5 exceeds C
    with pytest.raises(VoxlabError):
        verify_spanner(np.zeros((2, 2)), [np.array([1.0, 0.0])], C=2.0, eps=0.1)


def test_parameter_validation():
    lin_opt, lin_est = exact_vector_oracles([np.array([1.0, 0.0])])
    with pytest.raises(VoxlabError):
        robust_spanner(lin_opt, lin_est, C=1.0, eps=0.1, d=2)
    with pytest.raises(VoxlabError):
        robust_spanner(lin_opt, lin_est, C=2.0, eps=0.0, d=2)
    for C in (float("nan"), float("inf")):
        with pytest.raises(VoxlabError, match="C must exceed 1 and be finite"):
            robust_spanner(lin_opt, lin_est, C=C, eps=0.1, d=2)


def test_budget_error_reports_bound():
    # oracle whose reported vectors keep growing the determinant forever: a
    # fresh index on every query, each with a larger vector than the last
    d = 2
    scale = {"v": 1.0}
    issued = []

    def lin_opt(theta):
        issued.append(len(issued))
        return issued[-1]

    def lin_est(z):
        assert z == issued[-1]
        scale["v"] *= 4.0
        return np.array([scale["v"], 0.0])

    with pytest.raises(BudgetError) as exc:
        robust_spanner(lin_opt, lin_est, C=1.1, eps=0.5, d=d, max_rounds=6)
    msg = str(exc.value)
    assert "6 rounds" in msg
    assert str(spanner_rounds_bound(1.1, 0.5, d)) in msg


def test_phase_one_placements_count_against_the_budget():
    vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    lin_opt, lin_est = exact_vector_oracles(vectors)
    with pytest.raises(BudgetError, match="1 rounds"):
        robust_spanner(lin_opt, lin_est, C=2.0, eps=0.01, d=2, max_rounds=1)
    state = robust_spanner(lin_opt, lin_est, C=2.0, eps=0.01, d=2, max_rounds=2)
    assert state.rounds == 2


def test_round_and_call_accounting():
    vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
               np.array([-1.0, 0.0]), np.array([0.0, -1.0])]
    lin_opt, lin_est = exact_vector_oracles(vectors)
    state = robust_spanner(lin_opt, lin_est, C=2.0, eps=0.01, d=2)
    assert state.rounds >= 2  # phase 1 places both columns
    assert state.oracle_calls >= 4 * state.rounds
    assert len(state.indices) == 2
    assert all(ix is not None for ix in state.indices)


def reference_robust_spanner(lin_opt, lin_est, C, eps, d, max_rounds):
    """Frozen copy of the two-phase loop that the one placement step
    replaced: phase 1 places each column once, phase 2 restarts from
    column 0 after every swap.  Returns (W, indices, rounds, calls)."""
    W = np.eye(d)
    indices = [None] * d
    rounds = calls = 0

    def probe(theta_hat):
        nonlocal calls
        zp = lin_opt(theta_hat)
        wp = np.asarray(lin_est(zp), dtype=float)
        zm = lin_opt(-theta_hat)
        wm = np.asarray(lin_est(zm), dtype=float)
        calls += 4
        return zp, wp, zm, wm

    for i in range(d):
        theta = spanner_direction(W, i)
        nrm = np.linalg.norm(theta)
        if nrm < 1e-14:
            continue
        theta_hat = theta / nrm
        zp, wp, zm, wm = probe(theta_hat)
        if theta_hat @ wp >= -(theta_hat @ wm):
            W[:, i] = wp + eps * theta_hat
            indices[i] = zp
        else:
            W[:, i] = wm - eps * theta_hat
            indices[i] = zm
        rounds += 1
        assert rounds <= max_rounds
    while True:
        swapped = False
        for i in range(d):
            theta = spanner_direction(W, i)
            nrm = np.linalg.norm(theta)
            if nrm < 1e-14:
                continue
            theta_hat = theta / nrm
            base = C * abs(theta @ W[:, i])
            zp, wp, zm, wm = probe(theta_hat)
            if theta @ wp + eps * nrm >= base:
                W[:, i] = wp + eps * theta_hat
                indices[i] = zp
                swapped = True
            elif -(theta @ wm) + eps * nrm >= base:
                W[:, i] = wm - eps * theta_hat
                indices[i] = zm
                swapped = True
            if swapped:
                rounds += 1
                assert rounds <= max_rounds
                break
        if not swapped:
            return W, indices, rounds, calls


def scripted_oracles(vectors, script=()):
    """Exact oracles over ``vectors``, except that the first lin_opt calls
    return the indices in ``script``; every query is logged."""
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    queries = []

    def lin_opt(theta):
        queries.append(np.asarray(theta).tobytes())
        if len(queries) <= len(script):
            return script[len(queries) - 1]
        return int(np.argmax([theta @ v for v in vectors]))

    return lin_opt, lambda z: vectors[z], queries


def memoized(lin_opt):
    """lin_opt asked once per distinct query, keyed by the query's bytes."""
    answers = {}

    def ask(theta):
        key = theta.tobytes()
        if key not in answers:
            answers[key] = lin_opt(theta)
        return answers[key]

    return ask


def assert_matches_reference(make_oracles, C, eps, d):
    """The spanner and its frozen two-phase copy, each on fresh oracles (the
    copy's lin_opt asked once per distinct query), ask the same queries and
    return the same columns, indices and counts."""
    lin_opt, lin_est, queries = make_oracles()
    state = robust_spanner(lin_opt, lin_est, C=C, eps=eps, d=d)
    ref_opt, ref_est, ref_queries = make_oracles()
    W, indices, rounds, calls = reference_robust_spanner(
        memoized(ref_opt), ref_est, C, eps, d, spanner_rounds_bound(C, eps, d))
    assert queries == ref_queries
    assert state.W.tobytes() == W.tobytes()
    assert state.indices == indices
    assert (state.rounds, state.oracle_calls) == (rounds, calls)
    return state


def test_one_placement_step_matches_the_two_phase_spanner():
    # noisy families: the worst admissible index, a fixed error per index
    # and a low C make phase 2 swap on a share of the cases
    eps, C, swaps = 0.05, 1.1, 0
    for i in range(60):
        d = (2, 3, 4)[i % 3]
        rng = np.random.default_rng(5000 + i)
        raw = rng.standard_normal((int(rng.integers(2 * d, 30)), d))
        vectors = [v / max(1.0, np.linalg.norm(v)) for v in raw]
        noise = [u * (eps / 2.0) * rng.random() / np.linalg.norm(u)
                 for u in rng.standard_normal((len(vectors), d))]

        def make_oracles():
            queries = []

            def lin_opt(theta):
                queries.append(theta.tobytes())
                vals = np.array([theta @ v for v in vectors])
                ok = np.nonzero(vals >= vals.max() - eps / 2.0)[0]
                return int(ok[np.argmin(vals[ok])])

            return lin_opt, lambda z: vectors[z] + noise[z], queries

        state = assert_matches_reference(make_oracles, C, eps, d)
        swaps += state.rounds > d
    assert swaps >= 10


def test_a_swap_takes_plus_theta_when_both_signs_clear_the_bar():
    # phase 1 is scripted onto short vectors, column 1 off the e2 axis so
    # that column 0's phase-2 query is a new one; there its +theta probe
    # (0.5 e1) and its -theta probe (-e1) both beat C times the old column,
    # and the swap takes +theta although -theta is longer
    vectors = [[0.1, 0.0], [-0.1, 0.0], [0.05, 0.1], [0.0, -0.08],
               [0.5, 0.0], [-1.0, 0.0], [0.0, 0.5], [0.0, -1.0]]
    state = assert_matches_reference(
        lambda: scripted_oracles(vectors, script=(0, 1, 2, 3)), 2.0, 0.01, 2)
    assert state.rounds > 2 and state.indices[0] == 4


def test_a_degenerate_column_is_skipped_like_the_two_phase_spanner():
    # the scripted first placement cancels the eps shift onto 0.5 e3, parallel
    # to column 2, so column 1's direction vanishes and it is skipped; column
    # 2 is then placed along e1, phase 2 refills column 0 (a new query, since
    # column 2 moved) and column 1 stays unfilled
    vectors = [[-0.5, 0.0, 0.5], [0.6, 0.0, 0.0], [0.9, 0.0, 0.0],
               [-0.9, 0.0, 0.0], [0.0, 0.9, 0.0], [0.0, -0.9, 0.0],
               [0.0, 0.0, 0.9], [0.0, 0.0, -0.9]]
    state = assert_matches_reference(
        lambda: scripted_oracles(vectors, script=(0, 1)), 2.0, 0.5, 3)
    assert state.indices == [6, None, 3]
    assert state.rounds == 3 and state.oracle_calls == 4 * 6


def test_a_zero_column_is_not_swapped_back_in():
    # phase 1 places e1's +theta probe, (-0.5, 0), shifted by eps = 0.5 onto
    # a zero column; the same probe, a repeated query, then clears base = 0
    # with no gain.  A strict bar at base 0 stops there instead of swapping
    # until BudgetError
    vectors = [np.array([-0.5, 0.0]), np.array([0.5, 0.0])]
    queries = []

    def lin_opt(theta):
        queries.append(theta)
        return 0 if theta[0] > 0 else 1

    state = robust_spanner(lin_opt, lambda z: vectors[z], C=2.0, eps=0.5, d=2)
    assert state.indices == [0, None]
    assert state.rounds == 1 and len(queries) == 2
    assert state.oracle_calls == 2 * 4
    assert state.W.tobytes() == np.array([[0.0, 0.0], [0.0, 1.0]]).tobytes()


def test_lin_est_runs_once_per_distinct_index():
    # random families under an oracle that returns the worst admissible
    # index, so phase 2 swaps and re-probes indices it has seen; the frozen
    # loop, which calls lin_est on every probe, gives the run without memo
    eps, C, repeats = 0.05, 1.1, 0
    for i in range(12):
        d = (2, 3, 4)[i % 3]
        rng = np.random.default_rng(5000 + i)
        raw = rng.standard_normal((int(rng.integers(2 * d, 30)), d))
        vectors = [v / max(1.0, np.linalg.norm(v)) for v in raw]
        returned, evaluated = [], []

        def lin_opt(theta):
            vals = np.array([theta @ v for v in vectors])
            ok = np.nonzero(vals >= vals.max() - eps / 2.0)[0]
            returned.append(int(ok[np.argmin(vals[ok])]))
            return returned[-1]

        def lin_est(z):
            evaluated.append(z)
            return vectors[z]

        state = robust_spanner(lin_opt, lin_est, C=C, eps=eps, d=d)
        assert sorted(evaluated) == sorted(set(returned))
        assert state.est_calls == len(evaluated)
        repeats += len(evaluated) < len(returned)
        W, indices, rounds, calls = reference_robust_spanner(
            lin_opt, lambda z: vectors[z], C, eps, d,
            spanner_rounds_bound(C, eps, d))
        assert state.W.tobytes() == W.tobytes()
        assert (state.indices, state.rounds, state.oracle_calls) == (
            indices, rounds, calls)
    assert repeats == 12


def test_lin_opt_runs_once_per_distinct_query():
    # the families of the lin_est test; the frozen loop, which calls lin_opt
    # on every probe, asks the spanner's queries and repeats some of them
    eps, C, repeats = 0.05, 1.1, 0
    for i in range(12):
        d = (2, 3, 4)[i % 3]
        rng = np.random.default_rng(5000 + i)
        raw = rng.standard_normal((int(rng.integers(2 * d, 30)), d))
        vectors = [v / max(1.0, np.linalg.norm(v)) for v in raw]

        def make_oracles():
            queries = []

            def lin_opt(theta):
                queries.append(theta.tobytes())
                vals = np.array([theta @ v for v in vectors])
                ok = np.nonzero(vals >= vals.max() - eps / 2.0)[0]
                return int(ok[np.argmin(vals[ok])])

            return lin_opt, lambda z: vectors[z], queries

        lin_opt, lin_est, queries = make_oracles()
        state = robust_spanner(lin_opt, lin_est, C=C, eps=eps, d=d)
        assert len(set(queries)) == len(queries) == state.opt_calls
        assert state.est_calls <= state.opt_calls <= state.oracle_calls // 2
        ref_opt, ref_est, ref_queries = make_oracles()
        W, indices, rounds, calls = reference_robust_spanner(
            ref_opt, ref_est, C, eps, d, spanner_rounds_bound(C, eps, d))
        assert sorted(set(ref_queries)) == sorted(queries)
        assert len(ref_queries) == state.oracle_calls // 2
        repeats += len(queries) < len(ref_queries)
        assert state.W.tobytes() == W.tobytes()
        assert (state.indices, state.rounds, state.oracle_calls) == (
            indices, rounds, calls)
    assert repeats == 12
