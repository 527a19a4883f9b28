"""Exact cover verification, design certificates, and diagnostics."""

import numpy as np
import pytest

from voxlab import Policy, PolicyDistribution, VoxlabError, compose_policies
from voxlab.evalcover import (
    check_design_on_policies,
    check_policy_cover,
    coverability_ratio,
    pdl_check,
    reachability_diagnostics,
)
from voxlab.simenv import (
    EnvSpec,
    exact_occupancy,
    generate_low_rank_mdp,
    max_occupancies,
    reachability_eta,
)

from conftest import exact_design, small_env, uniform_mixture
from oracles import (
    dp_optimal_policy,
    enumerate_det_policies,
    oracle_design_certificate,
    oracle_occupancy,
)


def random_policy(M, rng):
    tabs = []
    for h in range(M.H):
        t = rng.random((M.n_states(h), M.A)) + 0.05
        tabs.append(t / t.sum(axis=1, keepdims=True))
    return Policy(0, tabs)


# ------------------------------------------------------------ cover checks


def test_layer_zero_cover_is_trivial(env):
    P = PolicyDistribution.point_mass(Policy.uniform(env))
    out = check_policy_cover(env, P, 0, alpha=1.0, eps=0.0)
    assert out["passed"]
    assert out["alpha_measured"] == pytest.approx(1.0, abs=1e-12)
    assert out["witnesses"] == []


def test_large_eps_passes_vacuously(env):
    P = PolicyDistribution.point_mass(Policy.uniform(env))
    out = check_policy_cover(env, P, 2, alpha=1.0, eps=50.0)
    assert out["passed"]
    assert out["n_qualifying"] == 0
    assert out["alpha_measured"] == np.inf


@pytest.mark.parametrize("alpha, eps", [(float("nan"), 0.0), (0.5, float("nan")),
                                        (float("inf"), 0.0), (0.5, float("inf")),
                                        (-0.1, 0.0), (0.5, -1e-3)])
def test_a_non_finite_or_negative_threshold_is_rejected(env, alpha, eps):
    # a NaN alpha makes every "vals < alpha * max" false, so it passed any cover
    P = PolicyDistribution.point_mass(Policy.uniform(env))
    with pytest.raises(VoxlabError, match="must be finite and >= 0"):
        check_policy_cover(env, P, 2, alpha=alpha, eps=eps)
    assert check_policy_cover(env, P, 2, alpha=0.0, eps=0.0)["passed"]


def test_all_deterministic_mixture_covers_everything(env):
    # each state's best policy is a support member, so the mixture retains
    # at least 1/|support| of every maximal occupancy at any eps
    P = uniform_mixture(enumerate_det_policies(env, env.H - 1))
    for eps in (0.0, 0.3, 1.0):
        out = check_policy_cover(env, P, 2, alpha=1.0 / len(P), eps=eps)
        assert out["passed"]
    assert out["alpha_measured"] >= 1.0 / len(P)


def test_failing_cover_names_witnesses():
    # a single deterministic policy leaves some reachable state underweighted
    M = small_env(seed=5, H=3, A=2, d=2, states=(3, 4, 4))
    pis = list(enumerate_det_policies(M, M.H - 1))
    worst = None
    for pi in pis:
        occ = exact_occupancy(M, pi, 2)
        maxima = max_occupancies(M, 2)
        ratio = (occ[maxima > 0] / maxima[maxima > 0]).min()
        if worst is None or ratio < worst[0]:
            worst = (ratio, pi)
    ratio, pi = worst
    assert ratio < 0.9  # sanity: the chosen policy really misses mass
    out = check_policy_cover(M, PolicyDistribution.point_mass(pi), 2,
                             alpha=0.95, eps=0.0)
    assert not out["passed"]
    assert out["witnesses"]
    assert out["alpha_measured"] == pytest.approx(ratio, abs=1e-12)


def test_max_mode_scores_support_not_average(env):
    # two deterministic policies each dominating different states: in max
    # mode each state is credited with its best support policy, so the
    # measured alpha can only improve on the expectation-mode value
    a = Policy.from_actions(env, [0, 0, 0])
    b = Policy.from_actions(env, [1, 1, 1])
    P = uniform_mixture([a, b])
    exp_out = check_policy_cover(env, P, 2, alpha=1e-9, eps=0.0)
    max_out = check_policy_cover(env, P, 2, alpha=1e-9, eps=0.0, mode="max")
    assert max_out["alpha_measured"] >= exp_out["alpha_measured"] - 1e-12
    with pytest.raises(VoxlabError):
        check_policy_cover(env, P, 2, alpha=0.1, eps=0.0, mode="bogus")


def loop_cover(M, P, h, alpha, eps, mode):
    """(alpha_measured, witnesses) by a per-state loop over the qualifying
    states, each ratio a scalar quotient."""
    maxima = max_occupancies(M, h)
    scale = (np.linalg.norm(M.mu[h - 1], axis=1) if h >= 1
             else np.ones(M.n_states(0)))
    occs = [exact_occupancy(M, pi, h) for pi in P.policies]
    if mode == "max":
        vals = np.max(occs, axis=0)
    else:
        vals = sum(w * occ for occ, w in zip(occs, P.weights))
    measured, witnesses = np.inf, []
    for x in range(M.n_states(h)):
        if maxima[x] >= eps * scale[x] and maxima[x] > 0.0:
            measured = min(measured, float(vals[x] / maxima[x]))
            if vals[x] < alpha * maxima[x] - 1e-9:
                witnesses.append(x)
    return measured, witnesses


def test_cover_check_matches_a_per_state_loop_bit_for_bit():
    rng = np.random.default_rng(3)
    for seed in (0, 1, 2):
        M = small_env(seed=seed, H=3, A=2, d=2, states=(2, 3, 3), boost=0.3)
        pis = list(enumerate_det_policies(M, M.H - 1))
        mixtures = [PolicyDistribution.point_mass(pis[0]),
                    uniform_mixture(pis[:3]),
                    PolicyDistribution([random_policy(M, rng), pis[-1]], [0.3, 0.7])]
        for P in mixtures:
            for h in range(M.H):
                for mode in ("expectation", "max"):
                    for eps in (0.0, 0.3):
                        for alpha in (0.0, 0.5, 1.0):
                            out = check_policy_cover(M, P, h, alpha, eps, mode)
                            measured, witnesses = loop_cover(M, P, h, alpha, eps,
                                                             mode)
                            assert out["alpha_measured"] == measured
                            assert out["witnesses"] == witnesses
                            assert out["passed"] == (not witnesses)


def test_a_bare_policy_covers_as_its_point_mass_bit_for_bit():
    # a bare Policy's cover mass is read from its occupancy directly, with
    # no point-mass mixture around it: every report field is unchanged
    rng = np.random.default_rng(4)
    M = small_env(seed=4, H=4, A=2, d=2, states=(2, 3, 3, 2), boost=0.3)
    for pi in (Policy.uniform(M), random_policy(M, rng)):
        for h in range(M.H):
            for mode in ("expectation", "max"):
                for alpha, eps in ((0.0, 0.0), (0.9, 0.1)):
                    got = check_policy_cover(M, pi, h, alpha, eps, mode)
                    want = check_policy_cover(M, PolicyDistribution.point_mass(pi),
                                              h, alpha, eps, mode)
                    assert got == want
                    assert (np.float64(got["alpha_measured"]).tobytes()
                            == np.float64(want["alpha_measured"]).tobytes())


# ------------------------------------------------------ design certificates


def test_single_state_design_certificate(env):
    # one roll-in policy on a single-state layer: the certificate equals
    # Tr((gamma I + W)^-1 W) <= d for any PSD W, trivially within bound
    M = small_env(seed=1, H=2, A=2, d=2, states=(1, 2))
    P = PolicyDistribution.point_mass(Policy.uniform(M))
    out = check_design_on_policies(M, M.phi[0], P, gamma=0.01, C=2.0, h=0)
    assert out["passed"]
    assert out["sup"] <= 2.0 + 1e-9  # d = 2


def test_exact_design_meets_design_bound():
    for seed in (0, 1, 2):
        M = small_env(seed=seed, H=3, A=2, d=2, states=(3, 4, 4), boost=0.4)
        for h in (0, 1):
            P, cert = exact_design(M, M.phi[h], h, gamma=1e-3, C=2.0)
            assert cert <= (1.0 + 2.0) * 2 + 1e-9
            out = check_design_on_policies(M, M.phi[h], P, 1e-3, 2.0, h)
            assert out["passed"]
            assert out["sup"] == pytest.approx(cert, abs=1e-9)


def test_design_certificate_matches_the_enumerated_oracle():
    # the DP sup over deterministic policies equals the direct-inversion
    # certificate over the enumerated family of their second moments
    M = small_env(seed=4, H=3, A=2, d=2, states=(2, 3, 3), boost=0.3)
    for h in (0, 1):
        feat = M.phi[h]
        pis = list(enumerate_det_policies(M, h))
        Ws = []
        for pi in pis:
            sa = oracle_occupancy(M, pi, h)[:, None] * pi.table(h)
            Ws.append(np.einsum("xa,xad,xae->de", sa, feat, feat))
        for picks in ([0], [1, len(pis) - 1], list(range(0, len(pis), 3))):
            w = 1.0 / len(picks)
            P = PolicyDistribution([pis[i] for i in picks], [w] * len(picks))
            out = check_design_on_policies(M, feat, P, 0.05, 2.0, h)
            ref = oracle_design_certificate({i: w for i in picks}, Ws, 0.05)
            assert out["sup"] == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_fw_design_over_policy_family_passes_on_random_envs():
    # the production design loop with exact policy-family oracles meets the
    # enumerated-policy certificate on 20 random environments
    from voxlab.optdesign import fw_optdesign

    from conftest import policy_design_oracles

    for seed in range(10):
        M = small_env(seed=seed, H=3, A=2, d=2, states=(2, 3, 3))
        for h in (0, 1):
            lin_opt, lin_est, interned = policy_design_oracles(M, M.phi[h], h)
            state = fw_optdesign(lin_opt, lin_est, C=2.0, gamma=0.1, d=M.d)
            P = PolicyDistribution([interned[z] for z in state.P],
                                   list(state.P.values()))
            out = check_design_on_policies(M, M.phi[h], P, 0.1, 2.0, h)
            assert out["passed"], (seed, h, out)


def test_design_composition_yields_next_layer_cover():
    # policies of an exact design at layer h, extended with uniform actions,
    # cover layer h+2 with alpha = eta'/(2 d A) and eps = eta' where
    # eta' = 4 d sqrt((1+C) gamma)
    M = small_env(seed=3, H=4, A=2, d=2, states=(3, 4, 4, 4), boost=0.5)
    C = 2.0
    d, A = 2, 2
    for hb in (0, 1):
        eta_min = reachability_eta(M, hb + 2)
        gamma = 0.99 * (eta_min / (4 * d)) ** 2 / (1.0 + C)
        P, cert = exact_design(M, M.phi[hb], hb, gamma, C)
        assert cert <= (1.0 + C) * d + 1e-9
        eta_prime = 4.0 * d * np.sqrt((1.0 + C) * gamma)
        alpha = eta_prime / (2.0 * d * A)
        tail = Policy.uniform(M, hb + 1, M.H - 1)
        composed = PolicyDistribution(
            [compose_policies(pi, tail) for pi in P.policies], P.weights)
        out = check_policy_cover(M, composed, hb + 2, alpha=alpha,
                                 eps=eta_prime)
        assert out["passed"], out
        assert out["n_qualifying"] > 0  # the guarantee is not vacuous here


def test_cover_parameter_arithmetic():
    # eta' = 4 d sqrt((1+C) gamma) and alpha = eta'/(2 d A) at the
    # documented reference point d=2, A=2, C=2, gamma=1e-4
    eta_prime = 4.0 * 2 * np.sqrt(3.0 * 1e-4)
    assert eta_prime == pytest.approx(0.13856406460551018, abs=1e-15)
    assert eta_prime / (2.0 * 2 * 2) == pytest.approx(0.017320508075688772,
                                                      abs=1e-15)


# ------------------------------------------------------------- pdl residual


def test_pdl_residual_zero_for_identical_policies(env):
    pi = Policy.uniform(env)
    tabs = [np.ones((env.n_states(t), env.A)) for t in range(env.H)]
    assert pdl_check(env, pi, pi, tabs) <= 1e-12


def test_pdl_residual_vanishes_on_random_pairs():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(100):
        M = small_env(seed=trial % 10, H=3, A=2, d=2, states=(2, 3, 3))
        pi = random_policy(M, rng)
        pi_star = random_policy(M, rng)
        tabs = [rng.random((M.n_states(t), M.A)) for t in range(M.H)]
        worst = max(worst, pdl_check(M, pi, pi_star, tabs))
    assert worst <= 1e-10


def test_pdl_with_optimal_comparator(env):
    rng = np.random.default_rng(8)
    tabs = [rng.random((env.n_states(t), env.A)) for t in range(env.H)]
    pi_star = dp_optimal_policy(env, tabs)
    pi = random_policy(env, rng)
    assert pdl_check(env, pi, pi_star, tabs) <= 1e-10


# ------------------------------------------------------------- diagnostics


def test_rank_one_diagnostics_closed_form():
    # d = 1: occupancies equal the density column regardless of policy, so
    # reachability, feature coverage, and explorability are all exactly 1
    M = small_env(seed=9, H=3, A=2, d=1, states=(2, 3, 3))
    out = reachability_diagnostics(M, n_dirs=8, rng=np.random.default_rng(0))
    assert out["eta_reach"] == pytest.approx(1.0, abs=1e-9)
    assert out["eta_cov"] == pytest.approx(1.0, abs=1e-9)
    assert out["eta_expl"] == pytest.approx(1.0, abs=1e-9)
    assert out["cov_implies_reach"] and out["expl_implies_reach"]


def test_diagnostics_implications_on_random_envs():
    for seed in range(8):
        M = small_env(seed=seed, H=3, A=2, d=2, states=(3, 4, 4))
        out = reachability_diagnostics(M, n_dirs=16,
                                       rng=np.random.default_rng(seed))
        assert out["cov_implies_reach"], out
        assert out["expl_implies_reach"], out
        assert out["eta_reach"] == pytest.approx(
            min(reachability_eta(M, h) for h in (1, 2)), abs=1e-12)


def test_a_rank_deficient_second_moment_reads_a_coverage_of_0_not_a_complex_bound():
    # with 7 latents and at most 3 states a layer, each E[phi phi^T] is rank
    # deficient, and its Frank-Wolfe lambda_min reads between -1.6e-17 and
    # -2.8e-18: unclipped, (cov / 2) ** 1.5 is complex and the comparison
    # with the reachability raises TypeError
    M = generate_low_rank_mdp(EnvSpec(H=5, A=2, d_latent=7,
                                      state_counts=[3, 3, 1, 1, 1], seed=0, boost=0.3))
    out = reachability_diagnostics(M, n_dirs=8, rng=np.random.default_rng(0))
    assert len(out["cov_by_layer"]) == 4
    assert all(c >= 0.0 for c in out["cov_by_layer"]) and out["eta_cov"] == 0.0
    assert out["cov_implies_reach"]


def test_coverability_ratio_bound():
    for seed in range(5):
        M = small_env(seed=seed, H=3, A=2, d=2, states=(3, 4, 4))
        for h in (1, 2):
            out = coverability_ratio(M, h)
            assert out["ratio"] <= 1.01 * 2 + 1e-6, out
            assert set(out) == {"ratio", "layer", "rounds", "d"}
            assert out["d"] == 2 and out["layer"] == h


def test_coverability_rank_one_is_exactly_d():
    M = small_env(seed=11, H=3, A=2, d=1, states=(2, 3, 3))
    out = coverability_ratio(M, 1)
    # the single spanner policy reproduces the density column exactly
    assert out["ratio"] == pytest.approx(1.0, abs=1e-9)
    assert out["d"] == 1
    with pytest.raises(VoxlabError):
        coverability_ratio(M, 0)
