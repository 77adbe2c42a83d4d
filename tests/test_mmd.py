import numpy as np
import pytest

from oracles import complete_pair_design, kernel_eval, mmd_h, mmd_incomplete, mmd_u
from selkern import (
    DataShapeError,
    Design,
    KernelSpec,
    MultiStat,
    RunConfig,
    derive_rng,
    mmd_stat,
    sample_pair_design,
)
from selkern.mmd import _pair_h

SPEC = KernelSpec(bandwidth=0.9)


def multistat(X, Y, specs, seed):
    """The statistic `mmd_stat` builds from ``specs`` with r = 1, on a pair
    design drawn from ``derive_rng(seed)``."""
    n = len(X)
    i, j = sample_pair_design(n, n, derive_rng(seed)).tuples.T
    return MultiStat.from_rows(_pair_h(X, Y, i, j, specs), ddof=1, n=n)


def loop_mmd_u(X, Y, spec):
    n = len(X)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += mmd_h(X[i], X[j], Y[i], Y[j], spec)
    return total / (n * (n - 1))


def test_h_all_equal_is_zero():
    assert mmd_h(1.3, 1.3, 1.3, 1.3, SPEC) == 0.0


def test_h_sample_swap_symmetry():
    rng = np.random.default_rng(0)
    x, xp, y, yp = rng.standard_normal(4)
    assert mmd_h(x, xp, y, yp, SPEC) == pytest.approx(mmd_h(y, yp, x, xp, SPEC), abs=1e-15)


def test_h_matches_four_kernel_calls():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, xp, y, yp = rng.standard_normal(4)
        expected = (
            kernel_eval(SPEC, x, xp)
            + kernel_eval(SPEC, y, yp)
            - kernel_eval(SPEC, xp, y)
            - kernel_eval(SPEC, x, yp)
        )
        assert mmd_h(x, xp, y, yp, SPEC) == pytest.approx(expected, abs=1e-14)


def test_u_identical_samples_zero():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((10, 2))
    assert mmd_u(X, X, SPEC) == 0.0


def test_u_two_point_hand_expansion():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((2, 1))
    Y = rng.standard_normal((2, 1))
    expected = 0.5 * (mmd_h(X[0], X[1], Y[0], Y[1], SPEC) + mmd_h(X[1], X[0], Y[1], Y[0], SPEC))
    assert mmd_u(X, Y, SPEC) == pytest.approx(expected, abs=1e-12)


def test_u_matches_loop_oracle():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((7, 2))
    Y = rng.standard_normal((7, 2)) + 0.3
    assert mmd_u(X, Y, SPEC) == pytest.approx(loop_mmd_u(X, Y, SPEC), abs=1e-12)


def test_u_detects_large_shift():
    positives = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((40, 1))
        Y = rng.standard_normal((40, 1)) + 5.0
        positives += mmd_u(X, Y, SPEC) > 0
    assert positives >= 99


def test_u_needs_two_rows():
    with pytest.raises(DataShapeError):
        mmd_u(np.zeros((1, 1)), np.zeros((1, 1)), SPEC)


def test_incomplete_complete_design_reduces_to_u():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((9, 1))
    Y = rng.standard_normal((9, 1))
    design = complete_pair_design(9)
    assert mmd_incomplete(X, Y, SPEC, design) == pytest.approx(mmd_u(X, Y, SPEC), abs=1e-12)


def test_incomplete_identical_samples_cancel():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((6, 1))
    design = Design(np.array([[0, 1], [1, 0], [2, 5], [5, 2]]), n=6)
    assert mmd_incomplete(X, X, SPEC, design) == 0.0


def test_incomplete_matches_loop_oracle():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((15, 3))
    Y = rng.standard_normal((15, 3))
    design = sample_pair_design(15, 40, rng)
    expected = np.mean([mmd_h(X[i], X[j], Y[i], Y[j], SPEC) for i, j in design.tuples])
    assert mmd_incomplete(X, Y, SPEC, design) == pytest.approx(expected, abs=1e-12)


def test_multistat_univariate_sigma_is_h_variance():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((20, 1))
    Y = rng.standard_normal((20, 1))
    stat = multistat(X, Y, [SPEC], 5)
    design = sample_pair_design(20, 20, derive_rng(5))
    h_vals = np.array([mmd_h(X[i], X[j], Y[i], Y[j], SPEC) for i, j in design.tuples])
    assert stat.variances[0] == pytest.approx(h_vals.var(ddof=1), abs=1e-12)
    assert stat.t[0] == pytest.approx(np.sqrt(20) * h_vals.mean(), abs=1e-12)


def test_multistat_duplicate_columns():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((18, 1))
    Y = rng.standard_normal((18, 1))
    X2 = np.hstack([X, X])
    Y2 = np.hstack([Y, Y])
    stat = multistat(X2, Y2, [SPEC, SPEC], 6)
    sigma = stat.factor.T @ stat.factor
    assert np.allclose(sigma[0], sigma[1], atol=1e-14)
    assert np.allclose(sigma[:, 0], sigma[:, 1], atol=1e-14)
    assert stat.t[0] == stat.t[1]


def test_multistat_matches_loop_oracle():
    rng = np.random.default_rng(14)
    n, d = 20, 3
    X = rng.standard_normal((n, d))
    Y = rng.standard_normal((n, d)) + 0.2
    for specs in (
        [KernelSpec(bandwidth=b) for b in (0.7, 1.0, 1.4)],
        [KernelSpec(family="imq", offset=c) for c in (0.5, 1.0, 2.0)],
    ):
        stat = multistat(X, Y, specs, 20)

        design = sample_pair_design(n, n, derive_rng(20))
        H = np.array(
            [[mmd_h(X[i, f], X[j, f], Y[i, f], Y[j, f], specs[f]) for f in range(d)] for i, j in design.tuples]
        )
        t_expected = np.sqrt(n) * H.mean(axis=0)
        centered = H - H.mean(axis=0)
        sigma_expected = centered.T @ centered / (n - 1)
        assert np.allclose(stat.t, t_expected, atol=1e-10)
        assert np.allclose(stat.factor.T @ stat.factor, sigma_expected, atol=1e-10)


def test_incomplete_unbiased_over_designs():
    rng = np.random.default_rng(15)
    n = 20
    X = rng.standard_normal((n, 1))
    Y = rng.standard_normal((n, 1)) + 0.4
    target = mmd_u(X, Y, SPEC)
    vals = np.array(
        [mmd_incomplete(X, Y, SPEC, sample_pair_design(n, n, derive_rng(100, i))) for i in range(5000)]
    )
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) <= 4 * se


def test_translation_invariance():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((12, 2))
    Y = rng.standard_normal((12, 2))
    shift = 0.7
    design = sample_pair_design(12, 25, derive_rng(8))
    assert mmd_u(X + shift, Y + shift, SPEC) == pytest.approx(mmd_u(X, Y, SPEC), abs=1e-10)
    assert mmd_incomplete(X + shift, Y + shift, SPEC, design) == pytest.approx(
        mmd_incomplete(X, Y, SPEC, design), abs=1e-10
    )


def test_sigma_symmetric_nonnegative_diagonal():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((30, 4))
    Y = rng.standard_normal((30, 4))
    stat = multistat(X, Y, [SPEC] * 4, 9)
    # Sigma = RᵀR is symmetric by construction; R is upper triangular with
    # a non-negative diagonal, and diag(Sigma) is its squared column norms.
    R = stat.factor
    assert np.array_equal(np.triu(R), R) and (np.diag(R) >= 0).all()
    assert np.allclose(stat.variances, np.diag(R.T @ R), rtol=1e-14, atol=0)
    assert (stat.variances >= 0).all()


def test_multistat_design_size_errors():
    X = np.zeros((4, 1))
    with pytest.raises(DataShapeError, match="design size"):
        mmd_stat(X, X, RunConfig(seed=0, r=0.1))
