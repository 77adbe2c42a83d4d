from itertools import permutations

import numpy as np
import pytest

from oracles import (
    block_design,
    complete_quad_design,
    gram_matrix,
    hsic_block,
    hsic_h,
    hsic_incomplete,
    hsic_u,
)
from selkern import (
    DataShapeError,
    JointSample,
    KernelSpec,
    MultiStat,
    RunConfig,
    derive_rng,
    hsic_stat,
    sample_quad_design,
)
from selkern.hsic import _block_hsic, _quad_h_matrix

SPEC_X = KernelSpec(bandwidth=1.1)
SPEC_Y = KernelSpec(bandwidth=0.8)


def multistat_incomplete(Z, specs, spec_y, seed):
    """The statistic `hsic_stat` builds from ``specs`` with r = 1, on a
    quadruple design drawn from ``derive_rng(seed)``."""
    design = sample_quad_design(Z.n, Z.n, derive_rng(seed))
    return MultiStat.from_rows(_quad_h_matrix(Z, specs, spec_y, design), ddof=1, n=Z.n)


def multistat_block(Z, specs, spec_y, block_size):
    """The statistic `hsic_stat` builds from ``specs`` with the block estimator."""
    return MultiStat.from_rows(_block_hsic(Z, specs, spec_y, block_size), ddof=0, n=Z.n)


def loop_h(K, L, quad):
    """Independent 24-term enumeration of the symmetrized kernel."""
    total = 0.0
    for s, t, u, v in permutations(quad):
        total += K[s, t] * (L[s, t] + L[u, v] - 2.0 * L[s, u])
    return total / 24.0


def loop_hsic_u(Z, spec_x, spec_y):
    K = gram_matrix(spec_x, Z.X, Z.X)
    L = gram_matrix(spec_y, Z.Y, Z.Y)
    n = Z.n
    total = 0.0
    count = 0
    for quad in permutations(range(n), 4):
        total += loop_h(K, L, quad)
        count += 1
    return total / count


def test_h_constant_response_is_zero():
    rng = np.random.default_rng(0)
    K = gram_matrix(SPEC_X, rng.standard_normal((5, 1)), rng.standard_normal((5, 1)))
    L = np.ones((5, 5))
    assert hsic_h(K, L, (0, 1, 2, 3)) == 0.0


def test_h_constant_covariate_is_zero():
    rng = np.random.default_rng(1)
    K = np.full((6, 6), 0.42)
    pts = rng.standard_normal((6, 1))
    L = gram_matrix(SPEC_Y, pts, pts)
    assert hsic_h(K, L, (1, 3, 4, 5)) == pytest.approx(0.0, abs=1e-12)


def test_h_matches_permutation_loop():
    rng = np.random.default_rng(2)
    pts_x = rng.standard_normal((4, 2))
    pts_y = rng.standard_normal((4, 1))
    K = gram_matrix(SPEC_X, pts_x, pts_x)
    L = gram_matrix(SPEC_Y, pts_y, pts_y)
    assert hsic_h(K, L, (0, 1, 2, 3)) == pytest.approx(loop_h(K, L, (0, 1, 2, 3)), abs=1e-12)


def test_h_repeated_index_rejected():
    K = np.eye(5)
    with pytest.raises(DataShapeError):
        hsic_h(K, K, (0, 1, 2, 2))


def test_u_constant_response_is_zero():
    rng = np.random.default_rng(3)
    Z = JointSample(rng.standard_normal((8, 1)), np.full(8, 2.0))
    assert hsic_u(Z, SPEC_X, SPEC_Y) == 0.0


def test_u_four_points_reduces_to_h():
    rng = np.random.default_rng(4)
    Z = JointSample(rng.standard_normal((4, 1)), rng.standard_normal(4))
    K = gram_matrix(SPEC_X, Z.X, Z.X)
    L = gram_matrix(SPEC_Y, Z.Y, Z.Y)
    assert hsic_u(Z, SPEC_X, SPEC_Y) == pytest.approx(hsic_h(K, L, (0, 1, 2, 3)), abs=1e-12)


def test_u_matches_bruteforce_oracle():
    rng = np.random.default_rng(5)
    Z = JointSample(rng.standard_normal((8, 2)), rng.standard_normal(8))
    assert hsic_u(Z, SPEC_X, SPEC_Y) == pytest.approx(loop_hsic_u(Z, SPEC_X, SPEC_Y), abs=1e-10)


def test_u_needs_four_rows():
    with pytest.raises(DataShapeError):
        hsic_u(JointSample(np.zeros((3, 1)), np.zeros(3)), SPEC_X, SPEC_Y)


def test_incomplete_complete_design_reduces_to_u():
    rng = np.random.default_rng(6)
    Z = JointSample(rng.standard_normal((6, 1)), rng.standard_normal(6))
    design = complete_quad_design(6)
    assert hsic_incomplete(Z, SPEC_X, SPEC_Y, design) == pytest.approx(
        hsic_u(Z, SPEC_X, SPEC_Y), abs=1e-12
    )


def test_incomplete_constant_response_any_design():
    rng = np.random.default_rng(7)
    Z = JointSample(rng.standard_normal((10, 1)), np.zeros(10))
    design = sample_quad_design(10, 37, derive_rng(3))
    assert hsic_incomplete(Z, SPEC_X, SPEC_Y, design) == 0.0


def test_incomplete_matches_loop_oracle():
    rng = np.random.default_rng(8)
    Z = JointSample(rng.standard_normal((12, 1)), rng.standard_normal(12))
    K = gram_matrix(SPEC_X, Z.X, Z.X)
    L = gram_matrix(SPEC_Y, Z.Y, Z.Y)
    design = sample_quad_design(12, 30, derive_rng(4))
    expected = np.mean([loop_h(K, L, tuple(q)) for q in design.tuples.tolist()])
    assert hsic_incomplete(Z, SPEC_X, SPEC_Y, design) == pytest.approx(expected, abs=1e-12)


def test_block_equals_u_when_single_block():
    rng = np.random.default_rng(9)
    Z = JointSample(rng.standard_normal((8, 1)), rng.standard_normal(8))
    assert hsic_block(Z, SPEC_X, SPEC_Y, 8) == pytest.approx(hsic_u(Z, SPEC_X, SPEC_Y), abs=1e-14)


def test_block_matches_incomplete_on_block_design():
    rng = np.random.default_rng(10)
    Z = JointSample(rng.standard_normal((16, 2)), rng.standard_normal(16))
    blocked = hsic_block(Z, SPEC_X, SPEC_Y, 8)
    incomplete = hsic_incomplete(Z, SPEC_X, SPEC_Y, block_design(16, 8))
    assert blocked == pytest.approx(incomplete, abs=1e-12)


def test_block_constant_response_zero():
    rng = np.random.default_rng(11)
    Z = JointSample(rng.standard_normal((12, 1)), np.full(12, -1.0))
    assert hsic_block(Z, SPEC_X, SPEC_Y, 4) == 0.0


def test_block_errors():
    rng = np.random.default_rng(12)
    Z = JointSample(rng.standard_normal((10, 1)), rng.standard_normal(10))
    with pytest.raises(DataShapeError):
        hsic_block(Z, SPEC_X, SPEC_Y, 3)
    with pytest.raises(DataShapeError):
        hsic_block(Z, SPEC_X, SPEC_Y, 11)


def test_multistat_incomplete_univariate_sigma():
    rng = np.random.default_rng(13)
    Z = JointSample(rng.standard_normal((16, 1)), rng.standard_normal(16))
    stat = multistat_incomplete(Z, [SPEC_X], SPEC_Y, 7)
    K = gram_matrix(SPEC_X, Z.X, Z.X)
    L = gram_matrix(SPEC_Y, Z.Y, Z.Y)
    design = sample_quad_design(16, 16, derive_rng(7))
    h_vals = np.array([loop_h(K, L, tuple(q)) for q in design.tuples.tolist()])
    assert stat.variances[0] == pytest.approx(h_vals.var(ddof=1), abs=1e-12)
    assert stat.t[0] == pytest.approx(np.sqrt(16) * h_vals.mean(), abs=1e-12)


def test_multistat_incomplete_duplicate_features():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((14, 1))
    Z = JointSample(np.hstack([x, x]), rng.standard_normal(14))
    stat = multistat_incomplete(Z, [SPEC_X, SPEC_X], SPEC_Y, 8)
    sigma = stat.factor.T @ stat.factor
    assert np.allclose(sigma[0], sigma[1], atol=1e-14)
    assert stat.t[0] == stat.t[1]


def test_multistat_incomplete_matches_loop_oracle():
    rng = np.random.default_rng(15)
    n, d = 16, 2
    X = rng.standard_normal((n, d))
    cases = [
        ([KernelSpec(bandwidth=0.9), KernelSpec(bandwidth=1.3)], SPEC_Y, rng.standard_normal(n)),
        ([KernelSpec(family="imq", offset=0.6), KernelSpec(family="imq", offset=1.5)],
         KernelSpec(family="imq", offset=0.8), rng.standard_normal(n)),
        ([KernelSpec(bandwidth=0.9), KernelSpec(bandwidth=1.3)], SPEC_Y, rng.standard_normal((n, 2))),
    ]
    for specs, spec_y, y in cases:
        Z = JointSample(X, y)
        stat = multistat_incomplete(Z, specs, spec_y, 21)

        design = sample_quad_design(n, n, derive_rng(21))
        L = gram_matrix(spec_y, Z.Y, Z.Y)
        H = np.empty((n, d))
        for f in range(d):
            K = gram_matrix(specs[f], Z.X[:, [f]], Z.X[:, [f]])
            H[:, f] = [loop_h(K, L, tuple(q)) for q in design.tuples.tolist()]
        t_expected = np.sqrt(n) * H.mean(axis=0)
        centered = H - H.mean(axis=0)
        sigma_expected = centered.T @ centered / (n - 1)
        assert np.allclose(stat.t, t_expected, atol=1e-10)
        assert np.allclose(stat.factor.T @ stat.factor, sigma_expected, atol=1e-10)


def test_multistat_block_two_blocks_sigma():
    # With two blocks the population-style covariance is ((eta1 - eta2) / 2)^2.
    rng = np.random.default_rng(16)
    Z = JointSample(rng.standard_normal((8, 1)), rng.standard_normal(8))
    stat = multistat_block(Z, [SPEC_X], SPEC_Y, 4)
    eta1 = hsic_u(JointSample(Z.X[:4], Z.Y[:4]), SPEC_X, SPEC_Y)
    eta2 = hsic_u(JointSample(Z.X[4:], Z.Y[4:]), SPEC_X, SPEC_Y)
    assert stat.variances[0] == pytest.approx((eta1 - eta2) ** 2 / 4.0, abs=1e-12)
    assert stat.t[0] == pytest.approx(np.sqrt(2) * (eta1 + eta2) / 2.0, abs=1e-12)


def test_multistat_block_duplicate_features():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((12, 1))
    Z = JointSample(np.hstack([x, x]), rng.standard_normal(12))
    stat = multistat_block(Z, [SPEC_X, SPEC_X], SPEC_Y, 4)
    sigma = stat.factor.T @ stat.factor
    assert np.allclose(sigma[0], sigma[1], atol=1e-14)


def test_multistat_block_matches_loop_oracle():
    rng = np.random.default_rng(18)
    d = 2
    specs = [KernelSpec(bandwidth=1.0), KernelSpec(bandwidth=0.7)]
    # (61, 27) leaves 7 trailing rows outside the two blocks.
    for n, B, q in ((40, 10, 1), (40, 10, 2), (61, 27, 1)):
        Z = JointSample(rng.standard_normal((n, d)), rng.standard_normal((n, q)))
        stat = multistat_block(Z, specs, SPEC_Y, B)

        blocks = n // B
        eta = np.empty((blocks, d))
        for b in range(blocks):
            rows = slice(b * B, (b + 1) * B)
            for f in range(d):
                eta[b, f] = hsic_u(JointSample(Z.X[rows, [f]], Z.Y[rows]), specs[f], SPEC_Y)
        t_expected = np.sqrt(blocks) * eta.mean(axis=0)
        centered = eta - eta.mean(axis=0)
        sigma_expected = centered.T @ centered / blocks
        assert np.allclose(stat.t, t_expected, atol=1e-10)
        assert np.allclose(stat.factor.T @ stat.factor, sigma_expected, atol=1e-10)


def test_multistat_block_needs_two_blocks():
    rng = np.random.default_rng(19)
    Z = JointSample(rng.standard_normal((7, 1)), rng.standard_normal(7))
    config = RunConfig(seed=0, method="multi-hsic", estimator="block", block_size=4)
    with pytest.raises(DataShapeError, match="2 full blocks"):
        hsic_stat(Z, config)


def test_incomplete_unbiased_over_designs():
    rng = np.random.default_rng(20)
    n = 20
    Z = JointSample(rng.standard_normal((n, 1)), rng.standard_normal(n))
    target = hsic_u(Z, SPEC_X, SPEC_Y)
    vals = np.array(
        [
            hsic_incomplete(Z, SPEC_X, SPEC_Y, sample_quad_design(n, n, derive_rng(200, i)))
            for i in range(5000)
        ]
    )
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) <= 4 * se


def test_shuffling_response_destroys_dependence():
    # Strong dependence in the data, but the average over response shuffles
    # recenters the estimator at independence.
    rng = np.random.default_rng(21)
    x = rng.standard_normal(50)
    y = x + 0.1 * rng.standard_normal(50)
    vals = []
    for i in range(400):
        shuffle_rng = derive_rng(300, i)
        Z = JointSample(x[:, None], shuffle_rng.permutation(y)[:, None])
        design = sample_quad_design(50, 50, shuffle_rng)
        vals.append(hsic_incomplete(Z, SPEC_X, SPEC_Y, design))
    vals = np.array(vals)
    dependent = hsic_incomplete(
        JointSample(x[:, None], y[:, None]), SPEC_X, SPEC_Y, sample_quad_design(50, 50, derive_rng(301))
    )
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean()) <= 4 * se
    assert dependent > 10 * se
