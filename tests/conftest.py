import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from voxlab import (
    EnvSpec,
    FeatureClass,
    Policy,
    PolicyDistribution,
    RepLearnConfig,
    generate_low_rank_mdp,
    simenv,
)

# The CLI tests start `python -m voxlab.cli` in a subprocess; give it the
# source tree under test, as pyproject's `pythonpath` gives this process.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@dataclass
class PinnedConfig(RepLearnConfig):
    """A `RepLearnConfig` whose `resolve` returns the given threshold, radii
    or iteration cap in place of the derived ones (None keeps the derived
    value).  It reaches paths that no derived value reaches: the gap
    scorer's ball projection at a small radius, equal radii, a forced or
    capped iteration count.  The library and the frozen references read it
    through `resolve`, as they read any config."""

    eps_stat: float | None = None
    r_big: float | None = None
    r_small: float | None = None
    max_iters: int | None = None

    def resolve(self, d, n, n_candidates):
        pins = (self.eps_stat, self.r_big, self.r_small, self.max_iters)
        return tuple(derived if pin is None else pin
                     for derived, pin in zip(super().resolve(d, n, n_candidates), pins))


class Expected:
    """A generator in the population limit: `multinomial(n, p)` returns the
    mean counts n * p, `random` draws nothing, and every other call goes to
    the wrapped generator.  The sampler then hands every phase its expected
    counts, so a sampled estimate reads its n = infinity limit through the
    same code."""

    def __init__(self, rng):
        self.rng = rng

    def multinomial(self, n, pvals):
        return np.asarray(n, float)[..., None] * pvals

    def random(self, size=None):
        return None

    def __getattr__(self, name):
        return getattr(self.rng, name)


def small_env(seed=0, H=3, A=2, d=2, states=(3, 4, 4), boost=0.0, rotate=False):
    spec = EnvSpec(H=H, A=A, d_latent=d, state_counts=list(states), seed=seed,
                   boost=boost, rotate=rotate)
    return generate_low_rank_mdp(spec)


def onehot_feature_class(M):
    """Indicator features per (x, a) cell; realizes any bounded Q-table."""
    tabs = []
    for t in range(M.H):
        n = M.n_states(t)
        tabs.append(np.eye(n * M.A).reshape(n, M.A, n * M.A))
    return FeatureClass([tabs])


def uniform_mixture(policies):
    policies = list(policies)
    w = 1.0 / len(policies)
    return PolicyDistribution(policies, [w] * len(policies))


def policy_design_oracles(M, feat, h):
    """Exact design oracles over the family {E^pi[phi phi^T]} at layer h.

    lin_opt maximizes the trace inner product exactly (greedy DP over
    deterministic policies attains the sup over all policies); lin_est
    returns the exact mixture second moment.  Policies are interned so the
    returned indices stay small and moments are computed once.
    """
    from voxlab.simenv import argmax_policy, exact_second_moment

    interned, seen, moments = [], {}, []

    def lin_opt(Q):
        g = np.einsum("xad,de,xae->xa", feat, Q, feat)
        pi = argmax_policy(M, h, g)
        key = pi.action_key()
        if key not in seen:
            seen[key] = len(interned)
            interned.append(pi)
            moments.append(exact_second_moment(M, pi, feat, h))
        return seen[key]

    def lin_est(P):
        return sum(w * moments[z] for z, w in P.items())

    return lin_opt, lin_est, interned


def exact_design(M, feat, h, gamma, C, max_rounds=80):
    """Fully corrective Frank-Wolfe design over exact second moments.

    Test-side construction: the linear-optimization step is an exact greedy
    policy for the quadratic reward and the mixing weight maximizes log det
    along the segment by line search, so the certificate sup over ALL
    policies of Tr(M_P^-1 E^pi[phi phi^T]) drops below (1+C) d within a few
    rounds.  Returns (PolicyDistribution, certificate).
    """
    from voxlab import Policy
    from voxlab.simenv import argmax_policy, exact_second_moment, max_value

    d = feat.shape[2]
    pis = [Policy.uniform(M, 0, h)]
    mats = [exact_second_moment(M, pis[0], feat, h)]
    wts = np.array([1.0])
    cert = None
    for _ in range(max_rounds):
        mixed = sum(w * S for w, S in zip(wts, mats))
        Mmat = gamma * np.eye(d) + mixed
        Minv = np.linalg.solve(Mmat, np.eye(d))
        Minv = 0.5 * (Minv + Minv.T)
        g = np.einsum("xad,de,xae->xa", feat, Minv, feat)
        cert = max_value(M, h, g)
        if cert <= (1.0 + C) * d:
            break
        pi_new = argmax_policy(M, h, g)
        S_new = exact_second_moment(M, pi_new, feat, h)
        best = None
        for a in np.linspace(0.01, 0.99, 99):
            sign, ld = np.linalg.slogdet(
                gamma * np.eye(d) + (1.0 - a) * mixed + a * S_new)
            if sign > 0 and (best is None or ld > best[0]):
                best = (ld, a)
        a = best[1]
        wts = np.append(wts * (1.0 - a), a)
        pis.append(pi_new)
        mats.append(S_new)
    return PolicyDistribution(pis, wts / wts.sum()), cert


@pytest.fixture
def env():
    return small_env(seed=7)


def reference_ball_solve(fac, y, radius):
    """Frozen copy of the one-target `BallLeastSquares.solve` that batched
    solves are pinned to, bit for bit: the min-norm solution when it fits
    the ball, otherwise the 200-step bisection on the ridge multiplier."""
    y = np.asarray(y, dtype=float)
    if fac.root is not None:
        y = y * fac.root
    s, Vt, pos = fac.s, fac.Vt, fac.pos
    b = fac.U.T @ y
    coef = np.zeros_like(s)
    coef[pos] = b[pos] / s[pos]
    w0 = Vt.T @ coef
    if np.linalg.norm(w0) <= radius + 1e-10:
        return w0

    def norm_at(lam):
        c = s * b / (s * s + lam)
        return float(np.sqrt((c * c).sum()))

    lo, hi = 0.0, 1.0
    while norm_at(hi) > radius:
        hi *= 2.0
        if hi > 1e18:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        nm = norm_at(mid)
        if abs(nm - radius) <= 1e-10:
            lo = hi = mid
            break
        if nm > radius:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return Vt.T @ (s * b / (s * s + lam))


def reference_sample_trajectories(M, pi, n, rng, upto):
    """The gather-clip-cumsum loop that `simenv.sample_trajectories` replaced,
    kept as its reference."""

    def categorical_rows(p):
        p = np.clip(p, 0.0, None)
        cum = np.cumsum(p, axis=1)
        u = rng.random(p.shape[0]) * cum[:, -1]
        idx = (cum <= u[:, None]).sum(axis=1)
        return np.minimum(idx, p.shape[1] - 1)

    states = np.empty((upto + 1, n), dtype=np.int64)
    actions = np.empty((upto + 1, n), dtype=np.int64)
    cum_rho = np.cumsum(M.rho)
    x = np.searchsorted(cum_rho, rng.random(n) * cum_rho[-1], side="right")
    x = np.minimum(x, M.n_states(0) - 1)
    for t in range(upto + 1):
        states[t] = x
        a = categorical_rows(pi.table(t)[x])
        actions[t] = a
        if t < upto:
            x = categorical_rows(M.transition_matrix(t)[x, a])
    return states, actions


def reference_rollin(M, P, n, rng, upto, tail=(), counter=None):
    """The per-component loop that `simenv.sample_trajectories` replaced for
    mixtures, drawing through the frozen `reference_sample_trajectories`,
    kept as its reference."""
    per_comp = rng.multinomial(n, P.weights)
    states, actions = [], []
    for comp, cnt in zip(P.policies, per_comp):
        if cnt == 0:
            continue
        tabs = [comp.table(t) for t in range(upto + 1 - len(tail))] + list(tail)
        S, A = reference_sample_trajectories(M, Policy(0, tabs), int(cnt), rng, upto)
        if counter is not None:
            counter.add(cnt)
        states.append(S)
        actions.append(A)
    return np.concatenate(states, axis=1), np.concatenate(actions, axis=1)


def patch_sampler(monkeypatch, fake):
    """Put ``fake`` in place of `simenv.sample_trajectories` at every binding
    of it in every loaded ``voxlab`` module, as the benchmark tracer's
    `Tracer.patched` does: psdp, replearn and estimators bind the sampler
    themselves, so patching `simenv` alone would miss their draws."""
    real = simenv.sample_trajectories
    for key, mod in list(sys.modules.items()):
        if mod is not None and (key == "voxlab" or key.startswith("voxlab.")):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, fake)
