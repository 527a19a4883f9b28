"""The infinite-sample limit as an exact oracle for the sampled components.

The sampler draws its counts from their exact multinomial law, so a draw of
n = 2**62 - 1 episodes costs what a small one costs, and its averages lie
within about 1e-9 of their expectations.  Each sampled component is checked
here against its exact counterpart at that n, on the combination lock and on
a c07-family environment, at every layer, under uniform play and under a
(0.3, 0.7) mixture of uniform play and a deterministic policy.

``RepLearnDataset.n`` is a float sum of the counts, so at this n it reads
2**62; the checks assert on the counts instead: the sampler's integer
counts sum to n exactly, and a dataset's float counts to n within rounding.
"""

import numpy as np
import pytest

from voxlab import Policy, PolicyDistribution
from voxlab.estimators import est_mat, est_vec, visit_counts
from voxlab.replearn import RepLearnDataset
from voxlab.simenv import (
    combination_lock,
    exact_feature_expectation,
    exact_second_moment,
)

from conftest import small_env

N = 2**62 - 1


def environments():
    return [combination_lock(6, 4, 2, 0),
            small_env(seed=7010, H=4, A=2, d=2, states=(4, 5, 5, 5), boost=0.5)]


def play(M, kind):
    """Uniform play as a Policy, or the (0.3, 0.7) mixture of uniform play
    and a fixed deterministic policy, with the mixture's (policy, weight)
    pairs for the exact side."""
    uniform = Policy.uniform(M)
    if kind == "uniform":
        return uniform, [(uniform, 1.0)]
    rng = np.random.default_rng(M.H)
    det = Policy.from_actions(M, [rng.integers(M.A, size=M.n_states(t))
                                  for t in range(M.H)])
    return PolicyDistribution([uniform, det], [0.3, 0.7]), [(uniform, 0.3), (det, 0.7)]


def unit_features(M, h, d, seed):
    """A fixed (|X_h|, A, d) feature table whose rows have norm at most 1."""
    feat = np.random.default_rng(seed).standard_normal((M.n_states(h), M.A, d))
    return feat / np.maximum(np.linalg.norm(feat, axis=2, keepdims=True), 1.0)


@pytest.mark.parametrize("kind", ["uniform", "mixture"])
def test_est_vec_and_est_mat_meet_the_exact_moments(kind):
    for M in environments():
        P, parts = play(M, kind)
        for h in range(M.H):
            feat = unit_features(M, h, 3, seed=h)
            assert int(visit_counts(M, h, P, N, np.random.default_rng(h)).sum()) == N
            vec = est_vec(M, h, feat, P, N, np.random.default_rng(h))
            want = sum(w * exact_feature_expectation(M, pi, feat, h) for pi, w in parts)
            assert np.abs(vec - want).max() <= 1e-9, (M.H, h)
            outer = feat[..., :, None] * feat[..., None, :]
            mat = est_mat(M, h, outer, P, N, np.random.default_rng(100 + h))
            want = sum(w * exact_second_moment(M, pi, feat, h) for pi, w in parts)
            assert np.abs(mat - want).max() <= 1e-9, (M.H, h)


@pytest.mark.parametrize("kind", ["uniform", "mixture"])
def test_replearn_targets_meet_the_exact_conditional_means(kind):
    # the cell-mean targets of next-state values F are T[x, a] @ F at every
    # observed cell, and the dataset holds all N episodes
    for M in environments():
        P, _ = play(M, kind)
        for h in range(M.H - 1):
            data = RepLearnDataset.collect(M, h, P, N, np.random.default_rng(h))
            assert data.counts.sum() == pytest.approx(N, rel=1e-15)
            F = np.random.default_rng(h).random((3, M.n_states(h + 1)))
            Y, _ = data.targets(F)
            xs, acts = np.nonzero(data.pair_counts > 0)
            want = M.transition_matrix(h)[xs, acts] @ F.T
            assert np.abs(Y - want.T).max() <= 1e-7, (M.H, h)
