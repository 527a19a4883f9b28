"""VoX and SpanRL outer loops, schedules, covers, reward optimization."""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from voxlab import (
    BudgetError,
    EpisodeCounter,
    LayeredLowRankMDP,
    Policy,
    PolicyDistribution,
    VoxlabError,
    compose_policies,
)
from voxlab import drivers, simenv
from voxlab.drivers import (
    CoverSet,
    SpanrlSchedule,
    VoxSchedule,
    mix_distributions,
    optimize_reward,
    run_spanrl,
    run_vox,
)
from voxlab.estimators import est_mat, est_vec
from voxlab.evalcover import check_policy_cover
from voxlab.psdp import linear_reward, psdp
from voxlab.replearn import RepLearnConfig, RepLearnDataset
from voxlab.simenv import make_feature_class
from voxlab.spanner import robust_spanner

from conftest import patch_sampler, small_env, uniform_mixture
from oracles import dp_optimal_value


def micro_replearn():
    return RepLearnConfig(restarts=2, grad_steps=10)


def boosted_env(seed=0, H=3):
    states = tuple([3] + [4] * (H - 1))
    return small_env(seed=seed, H=H, A=2, d=2, states=states, boost=0.6)


def vox_micro_schedule(K=2):
    return VoxSchedule(K=K, gamma=1e-3, n_replearn=600, n_estmat=400,
                       n_psdp=600, fw_max_iters=150, replearn=micro_replearn())


def spanrl_micro_schedule():
    return SpanrlSchedule(n_replearn=1500, n_estvec=800, n_psdp=1500,
                          replearn=micro_replearn())


# --------------------------------------------------------------- schedules


def test_vox_paper_schedule_arithmetic():
    s = VoxSchedule.paper(eta=0.1, d=2, A=2, n_candidates=4, H=4)
    assert s.K == 6400
    assert s.gamma == pytest.approx(0.01 / (16 * 576), rel=1e-12)
    assert s.gamma == pytest.approx(1.0850694444e-6, rel=1e-9)
    assert (s.n_replearn, s.n_estmat, s.n_psdp) == (
        1794878110, 2161090043567394521088000, 88810329997125795840)
    assert s.fw_max_iters is None and s.replearn == RepLearnConfig()


@pytest.mark.parametrize("cls, first", [(VoxSchedule, 0.1), (SpanrlSchedule, 0.5)])
def test_paper_schedules_size_rep_learn_at_their_own_delta(cls, first):
    # n_replearn is sized with log(|Phi|/delta), and so is rep-learn's threshold
    kw = dict(d=2, A=2, n_candidates=3, H=4, delta=0.01)
    assert cls.paper(first, **kw).replearn == RepLearnConfig(delta=0.01)
    given = RepLearnConfig(restarts=2, delta=0.01)
    assert cls.paper(first, **kw, replearn=given).replearn is given
    with pytest.raises(VoxlabError,
                       match="replearn delta 0.05 is not the schedule's delta 0.01"):
        cls.paper(first, **kw, replearn=RepLearnConfig())
    with pytest.raises(VoxlabError, match="replearn delta must be in"):
        cls.paper(first, **{**kw, "delta": 1.0})


@pytest.mark.parametrize("cls, name, bad, good", [
    (VoxSchedule, "eta", (0.0, -0.1, 1.5, float("nan")), 1.0),
    (SpanrlSchedule, "eps", (0.0, -0.1, 1.0, float("nan")), 0.99),
])
def test_paper_schedules_reject_a_target_out_of_range(cls, name, bad, good):
    for value in bad:
        with pytest.raises(VoxlabError, match=f"{name} must be in"):
            cls.paper(value, d=2, A=2, n_candidates=3, H=4)
    assert cls.paper(good, d=2, A=2, n_candidates=3, H=4).n_replearn >= 1


def test_schedule_validation():
    with pytest.raises(VoxlabError):
        VoxSchedule(K=0, gamma=0.1, n_replearn=10, n_estmat=10, n_psdp=10)
    with pytest.raises(VoxlabError):
        VoxSchedule(K=1, gamma=1.5, n_replearn=10, n_estmat=10, n_psdp=10)
    with pytest.raises(VoxlabError):
        SpanrlSchedule(n_replearn=0, n_estvec=10, n_psdp=10)
    s = SpanrlSchedule.paper(eps=0.05, d=2, A=2, n_candidates=4, H=3)
    assert (s.n_replearn, s.n_estvec, s.n_psdp) == (14023, 1199, 735210)
    assert s.replearn == RepLearnConfig()


def test_a_bad_C_or_eps_is_rejected_before_any_episode():
    M = boosted_env(seed=8)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(8))
    rng, counter = np.random.default_rng(9), EpisodeCounter()
    # C is the constant `drivers.C`; eps and every schedule value are checked
    vox, spanrl = vox_micro_schedule(), spanrl_micro_schedule()
    for eps in (0.0, 1.0, 1.5):
        with pytest.raises(VoxlabError, match="eps must be in"):
            run_spanrl(M, Phi, eps, spanrl, rng, counter=counter)
    with pytest.raises(VoxlabError, match="fw_max_iters must be >= 1"):
        run_vox(M, Phi, dataclasses.replace(vox, fw_max_iters=0), rng,
                counter=counter)
    for bad in ({"restarts": -2}, {"delta": 0.0}, {"delta": 1.0}, {"grad_steps": -1}):
        (name,) = bad
        with pytest.raises(VoxlabError, match=f"replearn {name} must"):
            run_vox(M, Phi, dataclasses.replace(vox, replearn=RepLearnConfig(**bad)),
                    rng, counter=counter)
    assert counter.count == 0


# ---------------------------------------------------------------- mixtures


def test_mix_distributions_dedup_and_weights(env):
    a = Policy.from_actions(env, [0, 0, 0])
    b = Policy.from_actions(env, [1, 1, 1])
    P1 = PolicyDistribution([a, b], [0.5, 0.5])
    P2 = PolicyDistribution([Policy.from_actions(env, [0, 0, 0])], [1.0])
    mixed = mix_distributions([(P1, 0.5), (P2, 0.5)])
    # the duplicate action table merges: 0.5*0.5 + 0.5*1.0 = 0.75 on a
    assert len(mixed) == 2
    assert abs(float(mixed.weights.sum()) - 1.0) < 1e-12
    assert max(mixed.weights) == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(VoxlabError, match="sum to"):
        mix_distributions([(P1, 0.4), (P2, 0.4)])


def test_rollin_mixture_places_half_mass_on_base_cover(env):
    # the k-th roll-in mixes the base cover at exactly one half
    base = PolicyDistribution.point_mass(Policy.from_actions(env, [0, 0, 0]))
    d1 = PolicyDistribution.point_mass(Policy.from_actions(env, [1, 1, 1]))
    d2 = PolicyDistribution.point_mass(Policy.from_actions(env, [0, 1, 0]))
    k = 3
    parts = [(base, 0.5)] + [(D, 1.0 / (2.0 * (k - 1))) for D in (d1, d2)]
    mixed = mix_distributions(parts)
    mass = sum(w for pi, w in zip(mixed.policies, mixed.weights)
               if pi == base.policies[0])
    assert mass == pytest.approx(0.5, abs=1e-12)


# -------------------------------------------------------------- vox driver


def test_vox_horizon_two_is_uniform_only():
    M = small_env(seed=0, H=2, A=2, d=2, states=(3, 3))
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(0))
    result = run_vox(M, Phi, vox_micro_schedule(), np.random.default_rng(1))
    assert result.episodes == 0
    assert result.log == []
    for h in (0, 1):
        dist = result.covers.distribution(h)
        assert len(dist) == 1
        assert np.allclose(dist.policies[0].table(h), 0.5)


def test_vox_micro_run_builds_valid_covers():
    M = boosted_env(seed=2)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(2))
    schedule = vox_micro_schedule()
    counter = EpisodeCounter()
    result = run_vox(M, Phi, schedule, np.random.default_rng(3), counter=counter)
    assert result.episodes == counter.count

    # exact episode reconstruction from the per-(h, k) log
    want = 0
    for row in result.log:
        want += schedule.n_replearn
        want += (1 + row["fw_iters"]) * (row["h"] + 1) * schedule.n_psdp
        want += 2 * row["fw_iters"] * schedule.n_estmat
    assert result.episodes == want

    assert len(result.log) == schedule.K * (M.H - 2)
    cover = result.covers.distribution(2)
    out = check_policy_cover(M, cover, 2, alpha=0.005, eps=0.0)
    assert out["passed"], out

    # support bound from the run's own gamma
    bound = schedule.K * int(np.ceil(
        4.0 / (schedule.gamma**2 * Phi.d) * np.log(1.0 + 1.0 / schedule.gamma)))
    assert len(cover) <= bound
    assert len(cover) <= schedule.K * (
        max(row["fw_iters"] for row in result.log) + 1)


def test_vox_log_rows_are_structured():
    M = boosted_env(seed=4)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(4))
    result = run_vox(M, Phi, vox_micro_schedule(), np.random.default_rng(5))
    for row in result.log:
        assert set(row) >= {"h", "k", "phi_index", "replearn_iters",
                            "fw_iters", "certificate", "support", "trace", "steps"}
        assert row["certificate"] <= (1.0 + 2.0) * Phi.d + 1e-9
        assert len(row["trace"]) == row["fw_iters"]
        # one line-search step per mixing round, floored at C gamma^2 d / 8
        assert len(row["steps"]) == row["fw_iters"] - 1
        assert all(2.0 * 1e-3**2 * Phi.d / 8.0 <= a <= 1.0 for a in row["steps"])


def test_vox_budget_error_says_where_and_keeps_the_partial_run():
    # a c07-family environment whose layer-1 design needs more than the one
    # Frank-Wolfe iteration allowed; layer 0's two designs finish first
    M = small_env(seed=7026, H=4, A=2, d=2, states=(4, 5, 5, 5), boost=0.5)
    rng = np.random.default_rng(7026)
    Phi = make_feature_class(M, n_decoys=2, rng=rng)
    s = VoxSchedule(K=2, gamma=1e-3, n_replearn=2000, n_estmat=3000,
                    n_psdp=2000, fw_max_iters=1, replearn=micro_replearn())
    counter = EpisodeCounter()
    with pytest.raises(BudgetError) as exc:
        run_vox(M, Phi, s, rng, counter=counter)
    err = exc.value
    assert (err.layer, err.k, err.iterations) == (1, 1, 1)
    assert "run_vox layer 1, k = 1" in str(err)
    assert "did not terminate in 1 iterations" in str(err)
    assert isinstance(err.__cause__, BudgetError)
    assert err.certificate == err.__cause__.certificate > (1.0 + drivers.C) * Phi.d
    assert [(row["h"], row["k"]) for row in err.log] == [(0, 1), (0, 2)]
    # the partial log plus the failed design's own work account for every
    # episode: rep-learn, the first PSDP call, then one FW iteration
    done = sum(s.n_replearn + (1 + row["fw_iters"]) * (row["h"] + 1) * s.n_psdp
               + 2 * row["fw_iters"] * s.n_estmat for row in err.log)
    failed = s.n_replearn + 2 * (err.layer + 1) * s.n_psdp + 2 * s.n_estmat
    assert err.episodes == counter.count == done + failed


# ----------------------------------------------------------- spanrl driver


def test_spanrl_horizon_two_is_uniform_only():
    M = small_env(seed=6, H=2, A=2, d=2, states=(3, 3))
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(6))
    result = run_spanrl(M, Phi, 0.1, spanrl_micro_schedule(),
                        np.random.default_rng(7))
    assert result.episodes == 0
    assert result.covers.psis[1] is not None
    assert len(result.covers.psis[1]) == 1


def spanrl_psdp_episodes(row, schedule):
    """PSDP episodes of one SpanRL design: n_psdp per roll-in its memo drew.
    The first query draws layers 0..h; no later one draws more than layers
    0..h-2, as sharing only the top two layers did."""
    h = row["h"]
    assert h + 1 <= row["psdp_draws"] <= 1 + min(h, 1) + row["opt_calls"] * max(h - 1, 0)
    return schedule.n_psdp * row["psdp_draws"]


def test_spanrl_micro_run_covers_and_accounting():
    M = boosted_env(seed=8)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(8))
    schedule = spanrl_micro_schedule()
    result = run_spanrl(M, Phi, 0.1, schedule, np.random.default_rng(9))

    # |Psi| = d at every produced layer
    for h in range(2, M.H):
        assert len(result.covers.psis[h]) == Phi.d

    # one PSDP run per distinct lin_opt query, drawing each distinct roll-in
    # of the design once, and one est_vec run per distinct policy
    want = 0
    for row in result.log:
        assert row["opt_calls"] <= row["oracle_calls"] // 2
        assert row["est_calls"] <= row["opt_calls"]
        want += schedule.n_replearn
        want += spanrl_psdp_episodes(row, schedule)
        want += row["est_calls"] * schedule.n_estvec
    assert result.episodes == want
    # the spanner re-probes policies it has already estimated
    assert any(row["est_calls"] < row["oracle_calls"] // 2 for row in result.log)

    out = check_policy_cover(M, result.covers.distribution(2), 2,
                             alpha=1.0 / (4 * M.A * Phi.d), eps=0.0, mode="max")
    assert out["passed"], out


def test_spanrl_on_a_lock_asks_each_confirmation_query_once():
    # on the lock every probe returns an exact one-hot feature expectation,
    # so phase 1's two placements stand and the confirmation pass repeats
    # their four queries: a quarter of the oracle calls run PSDP
    schedule = SpanrlSchedule(n_replearn=2000, n_estvec=2000, n_psdp=2000,
                              replearn=micro_replearn())
    for seed in range(5):
        M = simenv.combination_lock(5, 4, 2, seed)
        Phi = make_feature_class(M, n_decoys=2, rng=np.random.default_rng(seed))
        result = run_spanrl(M, Phi, 0.005, schedule,
                            np.random.default_rng(100 + seed))
        want = 0
        for row in result.log:
            assert row["spanner_rounds"] == Phi.d
            assert row["opt_calls"] * 4 == row["oracle_calls"]
            want += (schedule.n_replearn + row["est_calls"] * schedule.n_estvec
                     + spanrl_psdp_episodes(row, schedule))
            # the lock's queries share greedy suffixes, so a design above
            # layer 1 draws fewer roll-ins than sharing the top two would
            if row["h"] >= 2:
                assert row["psdp_draws"] < 2 + row["opt_calls"] * (row["h"] - 1)
        assert result.episodes == want
        # each cover reaches the open latent at 1/A, where uniform play has A^-h
        for h in range(2, M.H):
            out = check_policy_cover(M, result.covers.distribution(h), h,
                                     alpha=1.0 / M.A - 1e-9, eps=0.0, mode="max")
            assert out["passed"], (seed, h, out)


def test_spanrl_budget_error_says_where_and_keeps_the_partial_run(monkeypatch):
    # with d = 2, phase 1 alone places two columns, so one round is too few
    returned = []

    def recorded_psdp(*args, **kwargs):
        returned.append(psdp(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(drivers, "psdp", recorded_psdp)
    # the spanner stops at its own termination bound; cap it at one round
    monkeypatch.setattr(drivers, "robust_spanner", lambda *args, **kwargs:
                        robust_spanner(*args, max_rounds=1, **kwargs))
    M = boosted_env(seed=8, H=4)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(8))
    s = SpanrlSchedule(n_replearn=1500, n_estvec=800, n_psdp=1500,
                       replearn=micro_replearn())
    counter = EpisodeCounter()
    with pytest.raises(BudgetError) as exc:
        run_spanrl(M, Phi, 0.1, s, np.random.default_rng(9), counter=counter)
    err = exc.value
    assert (err.layer, err.k, err.iterations) == (0, None, None)
    assert "run_spanrl layer 0: robust_spanner exceeded 1 rounds" in str(err)
    assert isinstance(err.__cause__, BudgetError)
    assert err.log == []
    # rep-learn, then the two phase-1 probes: two PSDP calls each, which at
    # layer 0 share one draw, and one est_vec call per distinct policy they
    # return
    assert len(returned) == 2 * 2
    assert err.episodes == counter.count == (
        s.n_replearn + s.n_psdp + len(set(returned)) * s.n_estvec)


def test_spanrl_fills_an_unfilled_spanner_column_with_uniform_play(monkeypatch):
    def first_column_unfilled(*args, **kwargs):
        state = robust_spanner(*args, **kwargs)
        state.indices[0] = None
        return state

    monkeypatch.setattr(drivers, "robust_spanner", first_column_unfilled)
    M = boosted_env(seed=8, H=4)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(8))
    result = run_spanrl(M, Phi, 0.1, spanrl_micro_schedule(),
                        np.random.default_rng(9))
    for h in range(2, M.H):
        assert len(result.covers.psis[h]) == Phi.d
        filled = result.covers.psis[h][0]
        assert (filled.lo, filled.hi) == (0, M.H - 1)
        for t in range(M.H):
            assert np.array_equal(filled.table(t),
                                  np.full((M.n_states(t), M.A), 1.0 / M.A))

    # two columns holding one policy stay two entries at 1/d each
    def second_column_repeats_the_first(*args, **kwargs):
        state = robust_spanner(*args, **kwargs)
        state.indices[1] = state.indices[0]
        return state

    monkeypatch.setattr(drivers, "robust_spanner", second_column_repeats_the_first)
    result = run_spanrl(M, Phi, 0.1, spanrl_micro_schedule(),
                        np.random.default_rng(9))
    for h in range(2, M.H):
        cover = result.covers.distribution(h)
        assert len(cover) == Phi.d
        assert np.array_equal(cover.weights, np.full(Phi.d, 1.0 / Phi.d))
        first, second = result.covers.psis[h][:2]
        assert first.action_key() == second.action_key()


def test_a_vox_cover_mixes_every_design_of_its_layer(monkeypatch):
    # the cover of layer hc + 2 is the 1/K mixture of layer hc's K designs,
    # each policy composed with uniform play: a loop that kept only the
    # first design would give its policies all the weight
    designs = []
    design = drivers.fw_optdesign

    def recording(*args, **kwargs):
        state = design(*args, **kwargs)
        designs.append(dict(state.P))
        return state

    monkeypatch.setattr(drivers, "fw_optdesign", recording)
    M = boosted_env(seed=4, H=4)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(4))
    K = 3
    result = run_vox(M, Phi, vox_micro_schedule(K=K), np.random.default_rng(5))
    assert len(designs) == K * (M.H - 2)
    for hc in range(M.H - 2):
        tail, want = Policy.uniform(M, hc + 1, M.H - 1), {}
        for P in designs[hc * K:(hc + 1) * K]:
            for pi, w in P.items():
                key = compose_policies(pi, tail)
                want[key] = want.get(key, 0.0) + w / K
        cover = result.covers.distribution(hc + 2)
        got = dict(zip(cover.policies, cover.weights))
        assert got.keys() == want.keys()
        assert all(got[pi] == pytest.approx(w, abs=1e-12) for pi, w in want.items())


def test_a_one_index_design_reaches_est_mat_as_its_policy(monkeypatch):
    # Frank-Wolfe renormalizes by the sum, so a one-index design has weight
    # exactly 1.0 and VoX's LinEst hands EstMat the bare policy; a larger
    # design goes as the mixture of its indices at their weights
    calls, design, estimate = [], drivers.fw_optdesign, drivers.est_mat

    def recording_design(lin_opt, lin_est, *args):
        def recording_lin_est(P):
            calls.append([dict(P)])
            return lin_est(P)
        return design(lin_opt, recording_lin_est, *args)

    def recording_est_mat(M, h, F, pi, *args, **kwargs):
        calls[-1].append(pi)
        return estimate(M, h, F, pi, *args, **kwargs)

    monkeypatch.setattr(drivers, "fw_optdesign", recording_design)
    monkeypatch.setattr(drivers, "est_mat", recording_est_mat)
    M = boosted_env(seed=3)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(3))
    run_vox(M, Phi, vox_micro_schedule(), np.random.default_rng(4))
    assert {len(P) == 1 for P, _ in calls} == {True, False}
    for P, pi in calls:
        if len(P) == 1:
            assert type(pi) is Policy and P == {pi: 1.0}
        else:
            assert dict(zip(pi.policies, pi.weights.tolist())) == P


def test_covers_play_uniform_from_layer_h_minus_1_on():
    # every stored cover policy reaches the last layer, and each of its
    # layers from h-1 on (all of the first two covers, and the tail from
    # layer h-1 on of cover h) plays each action with probability exactly 1/A
    M = boosted_env(seed=8, H=4)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(8))
    for result in (
        run_vox(M, Phi, vox_micro_schedule(), np.random.default_rng(3)),
        run_spanrl(M, Phi, 0.1, spanrl_micro_schedule(),
                   np.random.default_rng(9)),
    ):
        for h in range(M.H):
            for pi in result.covers.distribution(h).policies:
                assert not pi.tables or pi.hi == M.H - 1
                for t in range(max(h - 1, pi.lo), pi.hi + 1):
                    assert np.array_equal(
                        pi.table(t), np.full((M.n_states(t), M.A), 1.0 / M.A)
                    ), (result.covers.kind, h, t)


# ------------------------------------------------------------ optimization


def test_optimize_reward_zero_vector(env):
    Phi = make_feature_class(env, n_decoys=1, rng=np.random.default_rng(10))
    covers = CoverSet(
        kind="vox", H=env.H,
        layers=[PolicyDistribution.point_mass(Policy.uniform(env))] * env.H)
    thetas = [np.zeros(2) for _ in range(env.H - 1)]
    pol, value = optimize_reward(env, covers, thetas, Phi, 50,
                                 np.random.default_rng(11))
    assert value == 0.0
    assert pol.covers(0, env.H - 2)


def test_optimize_reward_matches_dp():
    M = boosted_env(seed=12)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(12))
    covers = CoverSet(
        kind="vox", H=M.H,
        layers=[PolicyDistribution.point_mass(Policy.uniform(M))] * M.H)
    rng = np.random.default_rng(13)
    thetas = []
    for _ in range(M.H - 1):
        u = rng.standard_normal(2)
        thetas.append(u / np.linalg.norm(u))
    pol, value = optimize_reward(M, covers, thetas, Phi, 6000,
                                 np.random.default_rng(14))
    tables = [M.phi[t] @ thetas[t] for t in range(M.H - 1)]
    best = dp_optimal_value(M, tables)
    assert best - value <= 0.05


def test_optimize_reward_validation(env):
    Phi = make_feature_class(env, n_decoys=1, rng=np.random.default_rng(15))
    covers = CoverSet(
        kind="vox", H=env.H,
        layers=[PolicyDistribution.point_mass(Policy.uniform(env))] * env.H)
    rng = np.random.default_rng(16)
    with pytest.raises(VoxlabError, match="reward vectors, got 1"):
        optimize_reward(env, covers, [np.zeros(2)], Phi, 10, rng)  # wrong count
    with pytest.raises(VoxlabError, match="norm > 1"):
        optimize_reward(env, covers, [np.array([2.0, 0.0])] * (env.H - 1),
                        Phi, 10, rng)  # norm > 1
    # the last layer has no features, so a reward is exactly H-1 vectors:
    # an H-th one is refused before any episode, a zero one included
    counter = EpisodeCounter()
    long = [np.zeros(2)] * (env.H - 1) + [np.array([1.0, 0.0])]
    ok = [np.zeros(2)] * (env.H - 1) + [np.zeros(2)]
    for thetas in (long, ok):
        with pytest.raises(VoxlabError,
                           match=f"need {env.H - 1} reward vectors, got {env.H}"):
            optimize_reward(env, covers, thetas, Phi, 10, rng, counter=counter)
    # each vector has shape (d,): numpy would broadcast some misshaped ones
    for bad in (np.zeros(3), np.float64(0.5), np.zeros(0), np.zeros((2, 1))):
        with pytest.raises(VoxlabError, match=re.escape(
                f"reward vector at layer 0 has shape {bad.shape}, expected (2,)")):
            optimize_reward(env, covers, [bad] + ok[2:], Phi, 10, rng,
                            counter=counter)
    assert counter.count == 0
    pol, value = optimize_reward(env, covers, ok[:-1], Phi, 10, rng)
    assert value == 0.0


@pytest.mark.parametrize("thetas", [
    [[np.nan, 0.0], [0.0, 0.0]],
    [[0.0, np.inf], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 0.0], [np.nan, 0.0]],  # length H, one too many
])
def test_optimize_reward_rejects_non_finite_vectors(env, thetas):
    # both norm checks compare false on NaN, so a non-finite entry must be
    # caught on its own, before the count check and before any episode
    Phi = make_feature_class(env, n_decoys=1, rng=np.random.default_rng(15))
    covers = CoverSet(
        kind="vox", H=env.H,
        layers=[PolicyDistribution.point_mass(Policy.uniform(env))] * env.H)
    counter = EpisodeCounter()
    with pytest.raises(VoxlabError, match="finite"):
        optimize_reward(env, covers, thetas, Phi, 10, np.random.default_rng(16),
                        counter=counter)
    assert counter.count == 0


def test_missing_cover_layer_raises(env):
    # a layer is missing when it is None or past the end of a short list;
    # either is refused before any episode
    pm = PolicyDistribution.point_mass(Policy.uniform(env))
    Phi = make_feature_class(env, n_decoys=1, rng=np.random.default_rng(17))
    counter = EpisodeCounter()
    for layers, h in (([None] * env.H, 0), ([pm] * (env.H - 2), env.H - 2)):
        covers = CoverSet(kind="vox", H=env.H, layers=layers)
        with pytest.raises(VoxlabError, match=f"no cover stored for layer {h}"):
            optimize_reward(env, covers, [np.zeros(2)] * (env.H - 1), Phi, 10,
                            np.random.default_rng(18), counter=counter)
    assert counter.count == 0


# ------------------------------------------------------------ episode count


def test_every_episode_is_drawn_through_the_module_sampler(monkeypatch):
    # the benchmark's tracer counts episodes by wrapping every voxlab
    # module's binding of `simenv.sample_trajectories` and checks them
    # against EpisodeCounter; a path that drew through another name would
    # escape it
    drawn = []
    sample = simenv.sample_trajectories

    def counting(M, P, n, *args, **kwargs):
        drawn.append(n)
        return sample(M, P, n, *args, **kwargs)

    patch_sampler(monkeypatch, counting)
    M = boosted_env(seed=21)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(21))
    rng = np.random.default_rng(22)
    unif = uniform_mixture([Policy.uniform(M)])
    feat = M.phi[1]
    phiphi = np.einsum("xad,xae->xade", feat, feat)
    covers = run_spanrl(M, Phi, 0.1, spanrl_micro_schedule(), rng).covers
    thetas = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    paths = {
        "psdp": lambda c: psdp(M, 1, [np.zeros((M.n_states(0), M.A)),
                                      linear_reward(thetas[0], feat)],
                               Phi, 2.0, [unif, unif], 300, rng,
                               counter=c),
        "est_mat": lambda c: est_mat(M, 1, phiphi, unif, 300, rng, counter=c),
        "est_vec": lambda c: est_vec(M, 1, feat, unif, 300, rng, counter=c),
        "collect": lambda c: RepLearnDataset.collect(M, 0, unif, 300, rng,
                                                     counter=c),
        "run_vox": lambda c: run_vox(M, Phi, vox_micro_schedule(K=1), rng,
                                     counter=c),
        "run_spanrl": lambda c: run_spanrl(M, Phi, 0.1, spanrl_micro_schedule(),
                                           rng, counter=c),
        "optimize_reward": lambda c: optimize_reward(M, covers, thetas, Phi, 300,
                                                     rng, counter=c),
    }
    for name, path in paths.items():
        drawn.clear()
        counter = EpisodeCounter()
        path(counter)
        assert drawn and sum(drawn) == counter.count, name


# ------------------------------------------------------------ serialization


def test_coverset_roundtrip(env):
    a = Policy.from_actions(env, [0, 0, 0])
    b = Policy.from_actions(env, [1, 1, 1])
    covers = CoverSet(kind="spanrl", H=env.H,
                      layers=[uniform_mixture([a, b])] * env.H,
                      meta={"eps": 0.1})
    again = CoverSet.from_obj(covers.to_obj())
    assert again.kind == "spanrl" and again.H == env.H
    for h in range(env.H):
        d1, d2 = covers.distribution(h), again.distribution(h)
        assert np.allclose(d1.weights, d2.weights)
        for p1, p2 in zip(d1.policies, d2.policies):
            assert p1.lo == p2.lo
            for t in range(p1.lo, p1.hi + 1):
                assert np.array_equal(p1.table(t), p2.table(t))
    assert again.psis is not None and len(again.psis[0]) == 2


def test_run_result_json_is_deterministic():
    M = boosted_env(seed=19)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(19))
    schedule = VoxSchedule(K=2, gamma=0.02, n_replearn=600, n_estmat=400,
                           n_psdp=600, fw_max_iters=150,
                           replearn=micro_replearn())
    r1 = run_vox(M, Phi, schedule, np.random.default_rng(20))
    r2 = run_vox(M, Phi, schedule, np.random.default_rng(20))
    assert r1.to_json() == r2.to_json()
    payload = json.loads(r1.to_json())
    assert set(payload) == {"covers", "episode_count", "log"}
    assert payload["episode_count"] == r1.episodes


def test_runs_on_a_warm_memo_match_a_cold_copy_byte_for_byte():
    # the roll-in laws that the first runs memoise on M leave the second
    # runs' outputs as they are on a fresh copy of M, which starts cold
    M = boosted_env(seed=2, H=4)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(2))
    thetas = [np.array([0.6, 0.8]), np.array([0.0, -1.0]), np.array([1.0, 0.0])]

    def outputs(M):
        vox = run_vox(M, Phi, vox_micro_schedule(K=2), np.random.default_rng(3))
        span = run_spanrl(M, Phi, 0.1, spanrl_micro_schedule(),
                          np.random.default_rng(9))
        plans = [optimize_reward(M, covers, thetas, Phi, 600,
                                 np.random.default_rng(14))
                 for covers in (vox.covers, span.covers)]
        return ([vox.to_json(), span.to_json()]
                + [(pol.action_key(), repr(value)) for pol, value in plans])

    cold = outputs(LayeredLowRankMDP.from_json(M.to_json()))
    assert outputs(M) == cold
    assert M in simenv._LAWS
    assert outputs(M) == cold


# SHA-256 of fixed-seed run JSON; a change that moves any RNG draw, log
# field or cover entry changes them.  "plan" hashes the policy's
# action_key(), the repr of the value and the generator state after
# optimize_reward on each run's covers: full-horizon PSDP, with a radius
# at every layer and one-hot tails at every depth
GOLDEN = {
    "vox": "746ab33fe66070e91d34680a3147b1e98c6fe1c2dee3258ec9aaa17f9d86c5f0",
    "spanrl": "031344b381d1bd2ab4793c5151e3f95d9ef54c17671c6a0dcc3a2c127023cbe3",
    "plan": "740d9d90f84c320de3f7dbedc699506493cf8f09311d8cc1459606cd32e6d7a8",
}


def test_fixed_seed_run_json_matches_the_recorded_hash():
    M = boosted_env(seed=2, H=4)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(2))
    runs = {
        "vox": run_vox(M, Phi, vox_micro_schedule(K=2), np.random.default_rng(3)),
        "spanrl": run_spanrl(M, Phi, 0.1, spanrl_micro_schedule(),
                             np.random.default_rng(9)),
    }
    got = {kind: hashlib.sha256(r.to_json().encode()).hexdigest()
           for kind, r in runs.items()}
    rng = np.random.default_rng(4)
    u = rng.standard_normal((M.H - 1, M.d))
    thetas = u / np.linalg.norm(u, axis=1, keepdims=True)
    plan = hashlib.sha256()
    for r in runs.values():
        pol, value = optimize_reward(M, r.covers, thetas, Phi, 2000, rng)
        plan.update(repr((pol.action_key(), value, rng.bit_generator.state)).encode())
    got["plan"] = plan.hexdigest()
    assert got == GOLDEN


def test_every_design_and_spanner_uses_C_2_and_the_covers_record_it(monkeypatch):
    # C is one constant for both explorers; the spanner gets no round cap
    seen = []

    def recording(fn):
        def wrapped(lin_opt, lin_est, C, *args, **kwargs):
            seen.append((C, kwargs))
            return fn(lin_opt, lin_est, C, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(drivers, "fw_optdesign", recording(drivers.fw_optdesign))
    monkeypatch.setattr(drivers, "robust_spanner", recording(drivers.robust_spanner))
    M = boosted_env(seed=21)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(21))
    rng = np.random.default_rng(22)
    vox = run_vox(M, Phi, vox_micro_schedule(K=1), rng)
    spanrl = run_spanrl(M, Phi, 0.1, spanrl_micro_schedule(), rng)
    assert seen == [(2.0, {})] * 2
    assert vox.covers.meta["C"] == spanrl.covers.meta["C"] == drivers.C == 2.0


def test_drivers_call_the_traced_functions_through_their_module_bindings(
        monkeypatch):
    # the benchmark's tracer swaps these `voxlab.drivers` bindings; a
    # function captured when the drivers were defined would escape it
    names = ("rep_learn", "psdp", "est_mat", "est_vec", "fw_optdesign",
             "robust_spanner")
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(drivers, name, counting(name, getattr(drivers, name)))
    M = boosted_env(seed=21)
    Phi = make_feature_class(M, n_decoys=1, rng=np.random.default_rng(21))
    rng = np.random.default_rng(22)
    run_vox(M, Phi, vox_micro_schedule(K=1), rng)
    run_spanrl(M, Phi, 0.1, spanrl_micro_schedule(), rng)
    assert all(calls.values()), calls
