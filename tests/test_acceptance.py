"""Acceptance gate: eleven behavior checks at their stated tolerances.

Each check is one test so the verbose run prints one pass/fail line per
criterion.  Bounds, oracle error levels, sample sizes, and seed counts are
written out literally; none of them may be loosened here.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from voxlab.core import (
    BudgetError,
    Policy,
    PolicyDistribution,
    compose_policies,
)
from voxlab.drivers import (
    SpanrlSchedule,
    VoxSchedule,
    optimize_reward,
    run_spanrl,
    run_vox,
)
from voxlab.evalcover import (
    check_policy_cover,
    coverability_ratio,
    pdl_check,
    reachability_diagnostics,
)
from voxlab.optdesign import fw_iteration_bound, fw_optdesign
from voxlab.psdp import psdp
from voxlab.replearn import RepLearnConfig, exact_transfer_error, rep_learn
from voxlab.simenv import (
    EpisodeCounter,
    combination_lock,
    exact_policy_value,
    make_feature_class,
    reachability_eta,
)
from voxlab.spanner import robust_spanner, spanner_rounds_bound, verify_spanner

from conftest import exact_design, onehot_feature_class, small_env, uniform_mixture
from oracles import (
    dp_optimal_policy,
    dp_optimal_value,
    enumerate_det_policies,
    oracle_design_certificate,
)


# ------------------------------------------------------- design test families


def _psd_family(rng, d, size):
    """Random PSD matrices with Frobenius norm at most one."""
    fam = []
    for _ in range(size):
        G = rng.standard_normal((d, d))
        W = G @ G.T
        W *= rng.random() / np.linalg.norm(W)
        fam.append(W)
    return fam


def _design_cases():
    for i in range(50):
        d = (2, 3, 5)[i % 3]
        gamma = (0.1, 0.01)[i % 2]
        rng = np.random.default_rng(1000 + i)
        yield i, d, gamma, _psd_family(rng, d, int(rng.integers(5, 51)))


def _exact_design_oracles(Ws):
    Wstack = np.stack(Ws)
    d = Wstack.shape[1]

    def lin_opt(Q):
        return int(np.argmax(np.einsum("zij,ji->z", Wstack, Q)))

    def lin_est(P):
        out = np.zeros((d, d))
        for z, w in P.items():
            out += w * Wstack[z]
        return out

    return lin_opt, lin_est


def _noisy_design_oracles(Ws, C, gamma, rng):
    """Worst admissible index within C*gamma/5; estimates off by C*gamma^2/10."""
    Wstack = np.stack(Ws)
    d = Wstack.shape[1]
    eps_opt = C * gamma / 5.0
    eps_est = C * gamma**2 / 10.0

    def lin_opt(Q):
        vals = np.einsum("zij,ji->z", Wstack, Q)
        ok = np.flatnonzero(vals >= vals.max() - eps_opt)
        return int(ok[np.argmin(vals[ok])])

    def lin_est(P):
        out = np.zeros((d, d))
        for z, w in P.items():
            out += w * Wstack[z]
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        return out + eps_est * np.outer(u, u)

    return lin_opt, lin_est


def test_c01_design_certificate_iterations_and_monotonicity():
    t0 = time.monotonic()
    for i, d, gamma, fam in _design_cases():
        state = fw_optdesign(*_exact_design_oracles(fam), C=2.0, gamma=gamma, d=d)
        cert = oracle_design_certificate(state.P, fam, gamma)
        assert cert <= 4.0 * d + 1e-9, (i, cert)
        assert state.iterations <= fw_iteration_bound(2.0, gamma, d), i
        objs = [obj for _, obj, _ in state.trace]
        assert all(b - a >= -1e-12 for a, b in zip(objs, objs[1:])), i
    assert time.monotonic() - t0 < 10.0


def test_c02_design_robust_to_oracle_errors():
    for i, d, gamma, fam in _design_cases():
        oracles = _noisy_design_oracles(fam, 2.0, gamma,
                                        np.random.default_rng(2000 + i))
        state = fw_optdesign(*oracles, C=2.0, gamma=gamma, d=d)
        cert = oracle_design_certificate(state.P, fam, gamma)
        assert cert <= 4.0 * d + 1e-9, (i, cert)
        assert state.iterations <= fw_iteration_bound(2.0, gamma, d), i


def test_c03_spanner_exact_and_noisy_oracles():
    assert spanner_rounds_bound(2.0, 0.1, 2) == 17
    t0 = time.monotonic()
    eps, C = 0.05, 2.0
    for i in range(50):
        d = (2, 3, 4)[i % 3]
        rng = np.random.default_rng(3000 + i)
        raw = rng.standard_normal((int(rng.integers(2 * d, 41)), d))
        vectors = [v / max(1.0, np.linalg.norm(v)) for v in raw]

        def lin_opt_exact(theta):
            return int(np.argmax([theta @ v for v in vectors]))

        def lin_est_exact(z):
            return vectors[z]

        # fixed per-index estimation error and an adversarial admissible index
        noise = [u * (eps / 2.0) * rng.random() / np.linalg.norm(u)
                 for u in rng.standard_normal((len(vectors), d))]

        def lin_opt_noisy(theta):
            vals = np.array([theta @ v for v in vectors])
            ok = np.nonzero(vals >= vals.max() - eps / 2.0)[0]
            return int(ok[np.argmin(vals[ok])])

        def lin_est_noisy(z):
            return vectors[z] + noise[z]

        for lin_opt, lin_est in ((lin_opt_exact, lin_est_exact),
                                 (lin_opt_noisy, lin_est_noisy)):
            state = robust_spanner(lin_opt, lin_est, C=C, eps=eps, d=d)
            assert state.rounds <= spanner_rounds_bound(C, eps, d), i
            checks = verify_spanner(state.W, vectors, C=C, eps=eps)
            assert all(c["passed"] for c in checks), i
            assert max(np.abs(c["beta"]).max() for c in checks) <= C, i
            limit = 3.0 * C * d * eps / 2.0
            assert max(c["residual"] for c in checks) <= limit + 1e-9, i
    assert time.monotonic() - t0 < 5.0


def test_c04_exact_design_composes_into_next_layer_cover():
    # an exact design over true features at layer hb, extended with uniform
    # actions, covers layer hb+2 with alpha = eta'/(2dA) and eps = eta'
    M = small_env(seed=3, H=4, A=2, d=3, states=(4, 5, 5, 5), boost=0.5)
    C, d, A = 2.0, 3, 2
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
        assert out["n_qualifying"] > 0  # the claim is not vacuous here


def _all_det_covers(M, h):
    covers = []
    for t in range(h + 1):
        if t == 0:
            covers.append(PolicyDistribution.point_mass(Policy.empty(0)))
        else:
            covers.append(uniform_mixture(enumerate_det_policies(M, t - 1)))
    return covers


def test_c05_psdp_near_optimal_with_exhaustive_covers():
    t0 = time.monotonic()
    shapes = [(3, 4, 4), (4, 5, 5), (3, 5, 6), (4, 4, 6), (5, 6, 6)]
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        M = small_env(seed=4000 + seed, H=3, A=2, d=2,
                      states=shapes[seed % len(shapes)])
        tabs = [rng.random((n, M.A)) / M.H for n in M.state_counts()]
        Phi = onehot_feature_class(M)
        radius = 3.0 * np.sqrt(max(M.state_counts()) * M.A)
        pi = psdp(M, 2, tabs, Phi, radius, _all_det_covers(M, 2), 20000, rng)
        gap = dp_optimal_value(M, tabs) - exact_policy_value(M, pi, tabs)
        hits += gap <= 0.05
        pi_star = dp_optimal_policy(M, tabs)
        assert pdl_check(M, pi, pi_star, tabs) <= 1e-10, seed
    assert hits >= 18, hits
    assert time.monotonic() - t0 < 60.0


def test_c06_replearn_terminates_and_transfers():
    config = RepLearnConfig()
    _, _, _, T = config.resolve(2, 20000, 4)
    assert T == 51
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(6000 + seed)
        M = small_env(seed=6000 + seed, H=3, A=2, d=2, states=(3, 4, 4))
        Phi = make_feature_class(M, n_decoys=3, rng=rng, true_index=2)
        P = PolicyDistribution.point_mass(Policy.empty(0))
        res = rep_learn(M, 0, Phi, P, 20000, config, rng)
        assert res.iterations <= T, seed
        chosen = exact_transfer_error(M, 0, Phi, res.index, P,
                                      rng=np.random.default_rng(9000 + seed))
        best = exact_transfer_error(M, 0, Phi, Phi.true_index, P,
                                    rng=np.random.default_rng(9000 + seed))
        hits += chosen <= 2.0 * best + 1e-12
    assert hits >= 18, hits


def _explorer_env(seed):
    return small_env(seed=seed, H=4, A=2, d=2, states=(4, 5, 5, 5), boost=0.5)


EXPLORER_SEEDS = range(7010, 7020)


def test_c07_vox_end_to_end_covers_and_accounting():
    """A uniform explorer passes c07 and c08 too (ROADMAP item 5), so neither
    tells an explorer from doing nothing; c11 is the gate uniform play fails."""
    t0 = time.monotonic()
    schedule = VoxSchedule(K=4, gamma=1e-3, n_replearn=6000, n_estmat=12000,
                           n_psdp=8000, fw_max_iters=60,
                           replearn=RepLearnConfig(restarts=4, grad_steps=30))
    passes = 0
    for seed in EXPLORER_SEEDS:
        rng = np.random.default_rng(seed)
        M = _explorer_env(seed)
        Phi = make_feature_class(M, n_decoys=2, rng=rng)
        counter = EpisodeCounter()
        try:
            result = run_vox(M, Phi, schedule, rng, counter=counter)
        except BudgetError:
            continue  # the seed simply fails the cover criterion

        # episode accounting must reconstruct exactly from the log
        want = 0
        for row in result.log:
            want += schedule.n_replearn
            want += (1 + row["fw_iters"]) * (row["h"] + 1) * schedule.n_psdp
            want += 2 * row["fw_iters"] * schedule.n_estmat
        assert result.episodes == counter.count == want, seed

        passes += all(
            check_policy_cover(M, result.covers.distribution(h), h,
                               alpha=0.01, eps=0.0)["passed"]
            for h in range(2, M.H))
    assert passes >= 8, passes
    assert time.monotonic() - t0 < 600.0


def test_c08_spanrl_end_to_end_covers_and_reward():
    """A uniform explorer passes c07 and c08 too (ROADMAP item 5), so neither
    tells an explorer from doing nothing; c11 is the gate uniform play fails."""
    schedule = SpanrlSchedule(n_replearn=6000, n_estvec=6000, n_psdp=6000,
                              replearn=RepLearnConfig(restarts=4,
                                                      grad_steps=30))
    cover_passes = reward_passes = 0
    for seed in EXPLORER_SEEDS:
        rng = np.random.default_rng(seed)
        M = _explorer_env(seed)
        Phi = make_feature_class(M, n_decoys=2, rng=rng)
        eta = min(reachability_eta(M, h) for h in range(1, M.H))
        eps = eta / (36.0 * M.d ** 2.5)
        try:
            result = run_spanrl(M, Phi, eps, schedule, rng)
        except BudgetError:
            continue

        sizes_ok = all(len(result.covers.psis[h]) == Phi.d
                       for h in range(2, M.H))
        cover_passes += sizes_ok and all(
            check_policy_cover(M, result.covers.distribution(h), h,
                               alpha=1.0 / (4 * M.A * Phi.d), eps=0.0,
                               mode="max")["passed"]
            for h in range(2, M.H))

        theta_rng = np.random.default_rng(seed + 500)
        thetas = []
        for _ in range(M.H - 1):
            u = theta_rng.standard_normal(M.d)
            thetas.append(u / np.linalg.norm(u))
        _, value = optimize_reward(M, result.covers, thetas, Phi, 8000,
                                   np.random.default_rng(seed + 900))
        tables = [M.phi[t] @ thetas[t] for t in range(M.H - 1)]
        reward_passes += dp_optimal_value(M, tables) - value <= 0.05
    assert cover_passes >= 8, cover_passes
    assert reward_passes >= 9, reward_passes


def test_c09_reachability_and_coverability_diagnostics():
    shapes3 = [(3, 4, 4), (2, 3, 3), (4, 4, 4)]
    shapes4 = [(3, 3, 3, 3), (2, 3, 3, 4)]
    for i in range(50):
        H = 3 if i % 2 == 0 else 4
        d = (1, 2, 3)[i % 3]
        shapes = shapes3 if H == 3 else shapes4
        M = small_env(seed=900 + i, H=H, A=2, d=d,
                      states=shapes[i % len(shapes)], boost=(0.0, 0.4)[i % 2],
                      rotate=(i % 5 == 0))
        out = reachability_diagnostics(M, n_dirs=16,
                                       rng=np.random.default_rng(i))
        assert out["eta_reach"] >= (out["eta_cov"] / 2.0) ** 1.5 - 1e-9, i
        assert out["eta_reach"] >= out["eta_expl"] - 1e-9, i
        assert out["cov_implies_reach"] and out["expl_implies_reach"], i
        for h in range(1, H):
            cov = coverability_ratio(M, h)
            assert cov["ratio"] <= 1.01 * d + 1e-6, (i, h, cov)


def test_c10_cli_runs_are_byte_deterministic(tmp_path):
    env = tmp_path / "env.json"
    cmd = [sys.executable, "-m", "voxlab.cli"]
    subprocess.run(cmd + ["generate-env", "--H", "3", "--A", "2", "--d", "2",
                          "--states", "3,4,4", "--seed", "7", "--boost-eta",
                          "0.5", "--out", str(env)],
                   check=True, timeout=300)

    vox_cfg = tmp_path / "vox.json"
    vox_cfg.write_text(json.dumps({
        "K": 2, "gamma": 0.02, "n_replearn": 400, "n_estmat": 300,
        "n_psdp": 400, "fw_max_iters": 200,
        "replearn": {"restarts": 2, "grad_steps": 10},
    }))
    spanrl_cfg = tmp_path / "spanrl.json"
    spanrl_cfg.write_text(json.dumps({
        "eps": 0.05, "n_replearn": 600, "n_estvec": 400, "n_psdp": 600,
        "replearn": {"restarts": 2, "grad_steps": 10},
    }))

    for sub, cfg, seed in (("run-vox", vox_cfg, "3"),
                           ("run-spanrl", spanrl_cfg, "5")):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{sub}-{tag}.json"
            subprocess.run(cmd + [sub, "--env", str(env), "--config",
                                  str(cfg), "--seed", seed, "--out", str(out)],
                           check=True, timeout=300)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], sub


@pytest.mark.parametrize("true_index", [0, 2])
def test_c11_explorers_open_the_combination_lock(true_index):
    # H = 6, A = 4 locks, where uniform play reaches the open latent at
    # layer h with probability A^-h: at every layer 2..5, VoX covers reach
    # expectation-mode alpha 0.1 and SpanRL covers max-mode alpha 0.2, both
    # strictly above uniform's alpha in the same mode (measured: 1/(2A) =
    # 0.125 and 1/A = 0.25 on every seed, with the true map at either
    # index).  Rep-learn starts at index 0, so with the true map at index 2
    # it must move for the explorers to pass
    replearn = RepLearnConfig(restarts=4, grad_steps=30)
    vox = VoxSchedule(K=4, gamma=1e-3, n_replearn=6000, n_estmat=12000,
                      n_psdp=8000, fw_max_iters=60, replearn=replearn)
    spanrl = SpanrlSchedule(n_replearn=6000, n_estvec=6000, n_psdp=6000,
                            replearn=replearn)
    for seed in range(4):
        M = combination_lock(6, 4, 2, seed)
        Phi = make_feature_class(M, n_decoys=2, rng=np.random.default_rng(seed),
                                 true_index=true_index)
        eta = min(reachability_eta(M, h) for h in range(1, M.H))
        runs = [("expectation", 0.1,
                 run_vox(M, Phi, vox, np.random.default_rng(100 + seed))),
                ("max", 0.2, run_spanrl(M, Phi, eta / (36.0 * M.d ** 2.5), spanrl,
                                        np.random.default_rng(200 + seed)))]
        for mode, bar, result in runs:
            for h in range(2, M.H):
                uniform = check_policy_cover(M, Policy.uniform(M), h, alpha=0.0,
                                             eps=0.0, mode=mode)["alpha_measured"]
                assert uniform == pytest.approx(M.A ** -h, abs=1e-12)
                assert bar > uniform
                assert check_policy_cover(M, result.covers.distribution(h), h,
                                          alpha=bar, eps=0.0, mode=mode)["passed"], (
                    seed, mode, h)
