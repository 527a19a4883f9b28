import os
from pathlib import Path

import numpy as np
import pytest

from voxlab import EnvSpec, FeatureClass, PolicyDistribution, generate_low_rank_mdp

# The CLI tests start `python -m voxlab.cli` in a subprocess; give it the
# source tree under test, as pyproject's `pythonpath` gives this process.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


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
    from voxlab.optdesign import DesignOracles
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

    oracles = DesignOracles(dim=feat.shape[2], lin_opt=lin_opt, lin_est=lin_est)
    return oracles, interned


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
