import re
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import norm, truncnorm

from selkern import (
    DataShapeError,
    DegenerateFeatureError,
    DegenerateSampleError,
    JointSample,
    KernelSpec,
    MultiStat,
    RunConfig,
    ScalesDroppedWarning,
    derive_rng,
    derive_seed,
    gen_logistic,
    gen_mean_shift,
    hsic_stat,
    mmd_stat,
    poly_p,
    poly_truncation_intervals,
    select_and_test,
    select_top_k,
    selective_report,
)
import oracles
from selkern import designs, selective
from selkern.hsic import _block_hsic, _quad_h_matrix
from selkern.mmd import _pair_h
from selkern.selective import _report, _top_k_counts, statistic


def test_select_top_k_basic():
    assert select_top_k(np.array([3.0, 1.0, 2.0]), 2) == (0, 2)


def test_select_top_k_all():
    res = select_top_k(np.array([1.0, 3.0, 2.0]), 3)
    assert res == (1, 2, 0)
    assert set(res) == {0, 1, 2}


def test_select_top_k_tie_to_lowest_index():
    assert select_top_k(np.array([1.0, 1.0, 0.0]), 1) == (0,)
    assert select_top_k(np.array([1.0, 1.0, 1.0]), 2) == (0, 1)


def test_select_top_k_range_errors():
    with pytest.raises(ValueError):
        select_top_k(np.array([1.0, 2.0]), 0)
    with pytest.raises(ValueError):
        select_top_k(np.array([1.0, 2.0]), 3)


def selection_indicator(points, i, k):
    """Which rows of ``points`` have coordinate i among their k largest.

    The oracle of `_top_k_counts`, with the tie rule of `select_top_k`:
    coordinate i is beaten only by strictly larger coordinates and by equal
    coordinates of lower index.
    """
    col = points[:, i][:, None]
    beaten = (points > col).sum(axis=1) + (points[:, :i] == col).sum(axis=1)
    return beaten < k


def test_selection_indicator_k_equals_d():
    pts = np.random.default_rng(0).standard_normal((100, 3))
    assert selection_indicator(pts, 2, 3).all()


def test_selection_indicator_two_dims():
    assert selection_indicator(np.array([[2.0, 1.0]]), 0, 1)[0]
    assert not selection_indicator(np.array([[1.0, 2.0]]), 0, 1)[0]
    # Tie goes to the lower index.
    assert selection_indicator(np.array([[1.0, 1.0]]), 0, 1)[0]
    assert not selection_indicator(np.array([[1.0, 1.0]]), 1, 1)[0]


def test_selection_indicator_agrees_with_top_k():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        d = int(rng.integers(2, 8))
        k = int(rng.integers(1, d + 1))
        scores = rng.standard_normal(d)
        if rng.random() < 0.3:
            scores[rng.integers(0, d)] = scores[rng.integers(0, d)]  # inject ties
        member = set(select_top_k(scores, k))
        for i in range(d):
            assert selection_indicator(scores[None, :], i, k)[0] == (i in member)


def test_poly_interval_two_dims():
    t = np.array([2.0, 0.7])
    res = select_top_k(t, 1)
    vminus, vplus = poly_truncation_intervals(t, np.eye(2), res)
    assert vminus[0] == pytest.approx(0.7, abs=1e-12)
    assert vplus[0] == np.inf


def test_poly_interval_no_constraints_when_k_is_d():
    t = np.array([1.0, -0.5, 0.3])
    res = select_top_k(t, 3)
    vminus, vplus = poly_truncation_intervals(t, np.eye(3), res)
    j = res.index(1)
    assert (vminus[j], vplus[j]) == (-np.inf, np.inf)


def test_poly_interval_contains_observation():
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d))
        t = rng.standard_normal(d)
        A = rng.standard_normal((d, d)) / np.sqrt(d)
        # The factor of A Aᵀ + 0.1 I.
        factor = np.vstack([A.T, np.sqrt(0.1) * np.eye(d)])
        res = select_top_k(t, k)
        vminus, vplus = poly_truncation_intervals(t, factor, res)
        for j, i in enumerate(res):
            assert vminus[j] <= t[i] <= vplus[j]


def test_poly_p_unbounded_interval_is_classical():
    assert poly_p(1.3, 4.0, -np.inf, np.inf) == pytest.approx(norm.sf(1.3 / 2.0), rel=1e-12)


def test_poly_p_endpoints():
    assert poly_p(0.5, 1.0, 0.5, 2.0) == 1.0
    assert poly_p(2.0, 1.0, 0.5, 2.0) == 0.0


def test_poly_p_matches_scipy_truncnorm():
    rng = np.random.default_rng(3)
    for _ in range(100):
        sigma = float(rng.random() + 0.5)
        vminus = float(rng.normal(-1.0))
        vplus = float(vminus + rng.random() * 3 + 0.1)
        t = float(vminus + (vplus - vminus) * rng.random())
        ours = poly_p(t, sigma**2, vminus, vplus)
        ref = truncnorm.sf(t / sigma, vminus / sigma, vplus / sigma)
        assert ours == pytest.approx(ref, abs=1e-10)


def test_poly_p_deep_tail():
    p = poly_p(12.0, 1.0, 10.0, np.inf)
    ref = np.exp(norm.logsf(12.0) - norm.logsf(10.0))
    assert p == pytest.approx(ref, rel=1e-8)


def test_poly_p_zero_width_interval():
    with pytest.raises(ValueError):
        poly_p(1.0, 1.0, 1.0, 1.0)


def test_poly_p_far_tail_is_not_nan():
    # Past t / sigma ~ 1.34e154 the log survival is -inf at t and beyond: the
    # value is 1 at the lower end and underflows to 0 above it.
    assert poly_p(1e155, 1.0, 0.0, np.inf) == 0.0
    assert poly_p(1e155, 1.0, 1e155, np.inf) == 1.0
    assert poly_p(-1e155, 1.0, -np.inf, -1e154) == 1.0
    got = poly_p(np.array([1e155, 1e155, 2.0]), 1.0, np.array([0.0, 1e155, 2.0]), np.inf)
    assert got.tolist() == [0.0, 1.0, 1.0]


def _mp_truncated_survival(t, var, vminus, vplus):
    """poly_p's value from the exact doubles, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        sigma = mpmath.sqrt(mpmath.mpf(var))
        sf = lambda x: mpmath.mpf(0) if x == np.inf else mpmath.ncdf(-mpmath.mpf(x) / sigma)
        return (sf(t) - sf(vplus)) / (sf(vminus) - sf(vplus))


def test_poly_p_far_tail_matches_mpmath():
    # Multi's Phi(-b0) / Phi(-(b0 + phi)) at b0 = 3e5, phi = -3e-6 and at
    # b0 = 1e4, phi = -1e-4 were 2.3e-6 and 2.1e-9 off, taken as differences
    # of two log survivals of size b0^2 / 2.  Random intervals, one- and
    # two-sided, with both ends past 21 sigmas and values above 1e-300.
    cases = [(3e5, 1.0, 3e5 - 3e-6, np.inf), (1e4, 1.0, 1e4 - 1e-4, np.inf),
             (1e4, 1.0, 1e4 - 1e-4, 1e4 + 1e-4), (50.0, 4.0, 49.5, np.inf)]
    rng = np.random.default_rng(23)
    while len(cases) < 200:
        sigma = float(np.sqrt(rng.choice([1.0, 0.25, 7.3])))
        t = 10 ** rng.uniform(1.4, 6) * sigma
        vminus = t - sigma * 10 ** rng.uniform(-9, 0.5)
        vplus = np.inf if rng.random() < 0.5 else t + sigma * 10 ** rng.uniform(-9, 0.5)
        if _mp_truncated_survival(t, sigma ** 2, vminus, vplus) > 1e-300:
            cases.append((t, sigma ** 2, vminus, vplus))
    got = poly_p(*np.array(cases).T)
    for p, case in zip(got, cases):
        ref = _mp_truncated_survival(*case)
        assert abs(p - ref) <= 1e-12 * ref, (case, p, ref)
    assert [poly_p(*case) for case in cases[:4]] == got[:4].tolist()


def _single_feature_problem(seed):
    rng = derive_rng(seed)
    X = rng.standard_normal((120, 1))
    Y = rng.standard_normal((120, 1)) + 0.6
    return X, Y


def test_k_equals_d_equals_one_reduces_to_classical():
    X, Y = _single_feature_problem(4)
    config = RunConfig(seed=9, k=1)
    with pytest.warns(ScalesDroppedWarning):
        multi = select_and_test((X, Y), config)
    poly = select_and_test((X, Y), replace(config, method="poly-mmd"))
    stat = mmd_stat(X, Y, config)
    classical = norm.sf(stat.t[0] / np.sqrt(stat.variances[0]))
    assert multi.p_values[0] == pytest.approx(classical, rel=1e-12)
    assert poly.p_values[0] == pytest.approx(classical, rel=1e-12)
    assert abs(multi.p_values[0] - poly.p_values[0]) < 0.02
    assert multi.diagnostics[0]["fallback"] == "selection-unconstraining"


def test_selection_consistent_across_methods():
    rng = derive_rng(5)
    X, Y = gen_mean_shift(150, 8, 0.5, 3, rng)
    config = RunConfig(seed=31, k=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalesDroppedWarning)
        multi = select_and_test((X, Y), config)
    poly = select_and_test((X, Y), replace(config, method="poly-mmd"))
    assert multi.selected == poly.selected


def test_report_shape_and_bounds():
    rng = derive_rng(6)
    X, Y = gen_mean_shift(100, 6, 0.4, 2, rng)
    config = RunConfig(seed=17, k=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalesDroppedWarning)
        for report in (select_and_test((X, Y), config),
                       select_and_test((X, Y), replace(config, method="poly-mmd"))):
            assert len(report.p_values) == 3
            assert all(0.0 <= p <= 1.0 and np.isfinite(p) for p in report.p_values)
            assert len(report.diagnostics) == 3
            assert report.config["seed"] == 17
            assert "threads" not in report.config
    scale_count = RunConfig(seed=0).scale_count
    for diag in select_and_test((X, Y), config).diagnostics:
        assert len(diag["bootstrap_probabilities"]) == len(diag["psi"]) == scale_count
        if "fit_beta0" in diag:
            assert {"fit_weighted_rss", "fit_rmse", "fit_max_abs_residual"} <= diag.keys()


def test_multi_p_is_poly_p_on_the_selection_interval():
    # Every fitted Multi feature's p is the survival at beta0 = t_i / sigma_i
    # of N(0, 1) truncated to [beta0 + phi_S(0), inf), bit for bit.
    rng = derive_rng(5)
    X, Y = gen_mean_shift(150, 8, 0.5, 3, rng)
    Z = gen_logistic(150, 8, 3, rng)
    fitted = 0
    for data, method in (((X, Y), "multi-mmd"), (Z, "multi-hsic")):
        config = RunConfig(seed=31, k=4, method=method)
        stat = statistic(data, config)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScalesDroppedWarning)
            report = selective_report(stat, config)
        for i, p, diag in zip(report.selected, report.p_values, report.diagnostics):
            assert diag["beta0"] == stat.t[i] / np.sqrt(stat.variances[i])
            if "fit_beta0" in diag:
                fitted += 1
                assert p == poly_p(diag["beta0"], 1.0, diag["beta0"] + diag["phi_s0"], np.inf)
    assert fitted > 0


def test_scales_dropped_warns_once_per_report_at_the_caller():
    # With k = d every replicate selects every feature, so no feature has a fit.
    rng = derive_rng(5)
    X, Y = gen_mean_shift(60, 3, 0.5, 1, rng)
    config = RunConfig(seed=31, k=3)
    for run in (lambda: select_and_test((X, Y), config),
                lambda: selective_report(mmd_stat(X, Y, config), config)):
        with pytest.warns(ScalesDroppedWarning) as rec:
            report = run()
        assert [diag["fallback"] for diag in report.diagnostics] == ["selection-unconstraining"] * 3
        assert len(rec) == 1 and rec[0].filename == __file__
        assert "for 3 of 3 selected features" in str(rec[0].message)


def test_hsic_reports_run():
    rng = derive_rng(7)
    Z = gen_logistic(120, 6, 2, rng)
    config = RunConfig(seed=23, k=3, method="multi-hsic")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalesDroppedWarning)
        multi = select_and_test(Z, config)
    poly = select_and_test(Z, replace(config, method="poly-hsic"))
    assert multi.selected == poly.selected
    assert all(0.0 <= p <= 1.0 for p in multi.p_values + poly.p_values)


def test_block_estimator_path():
    rng = derive_rng(8)
    Z = gen_logistic(100, 5, 2, rng)
    config = RunConfig(seed=29, k=2, method="multi-hsic", estimator="block", block_size=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalesDroppedWarning)
        report = select_and_test(Z, config)
    assert len(report.p_values) == 2
    assert all(0.0 <= p <= 1.0 for p in report.p_values)


def test_imq_config_reaches_both_statistics():
    # `kernel_family="imq"` gives every column, and the response, the IMQ
    # kernel at `imq_offset`: each statistic equals the one built from those
    # per-column specs on the same design, and the offset moves the scores.
    rng = derive_rng(14)
    n, d = 64, 3
    X, Y = rng.standard_normal((n, d)), rng.standard_normal((n, d)) + 0.5
    Z = JointSample(X, X[:, 0] + rng.standard_normal(n))
    scores = []
    for c in (0.5, 2.0):
        imq = RunConfig(seed=5, method="multi-mmd", kernel_family="imq", imq_offset=c)
        spec = KernelSpec("imq", offset=c)
        i, j = selective._stat_design(designs.sample_pair_design, n, imq).tuples.T
        quads = selective._stat_design(designs.sample_quad_design, n, imq)
        cases = [
            (mmd_stat(X, Y, imq), MultiStat.from_rows(_pair_h(X, Y, i, j, [spec] * d), ddof=1, n=n)),
            (hsic_stat(Z, replace(imq, method="multi-hsic")),
             MultiStat.from_rows(_quad_h_matrix(Z, [spec] * d, spec, quads), ddof=1, n=n)),
            (hsic_stat(Z, replace(imq, method="multi-hsic", estimator="block", block_size=8)),
             MultiStat.from_rows(_block_hsic(Z, [spec] * d, spec, 8), ddof=0, n=n)),
        ]
        for got, expected in cases:
            assert np.array_equal(got.t, expected.t)
            assert np.array_equal(got.factor, expected.factor)
        scores.append([got.t for got, _ in cases])
    for low, high in zip(*scores):
        assert not np.allclose(low, high)


@pytest.mark.parametrize("call, error, message", [
    (lambda: RunConfig(seed=1, method="multi"), ValueError,
     "method must be one of ('multi-mmd', 'poly-mmd', 'multi-hsic', 'poly-hsic')"),
    (lambda: RunConfig(seed=1, estimator="full"), ValueError, "estimator must be one of ('incomplete', 'block')"),
    (lambda: RunConfig(seed=1, block_size=3), ValueError, "block_size must be >= 4"),
    (lambda: RunConfig(seed=1, replicates_per_scale=0), ValueError, "replicates_per_scale must be >= 1"),
    (lambda: RunConfig(seed=1, kernel_family="laplace"), ValueError, "kernel_family must be 'gaussian' or 'imq'"),
    (lambda: RunConfig(seed=1, k=0), ValueError, "k must be >= 1"),
    (lambda: RunConfig(seed=1, threads=0), ValueError, "threads must be >= 1"),
    (lambda: RunConfig(seed=2**64), ValueError, "seed must be an unsigned 64-bit integer"),
    (lambda: MultiStat(t=np.zeros(3), factor=np.zeros((2, 2)), n=4), DataShapeError,
     "factor must be 2-D with one column per entry of t"),
    (lambda: MultiStat(t=np.zeros(2), factor=np.zeros((2, 2)), n=4, feature_names=["a"]), DataShapeError,
     "feature_names length must match t"),
    (lambda: JointSample(np.zeros((4, 2)), np.zeros(3)), DataShapeError, "X and Y must have equal row counts"),
    (lambda: poly_p(2.0, 1.0, -1.0, 1.0), ValueError, "statistic lies outside its truncation interval"),
], ids=["method", "estimator", "block-size", "replicates", "kernel-family", "k", "threads", "seed",
        "factor-shape", "feature-names", "joint-rows", "poly-p-outside"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_degenerate_feature_yields_conservative_p():
    # A constant column and a column whose differences all square to 0 have
    # zero h-variance; the test flags each and reports 1, under a fixed
    # bandwidth and under the median heuristic, for MMD and HSIC.  A column
    # whose median squared difference overflows has an infinite median-heuristic
    # width, so a constant kernel: it is flagged wherever its own width is used.
    rng = derive_rng(9)
    tiny = np.where(rng.random((80, 2)) < 0.5, 0.0, 1e-170)
    X = np.hstack([rng.standard_normal((80, 1)), np.zeros((80, 1)), tiny[:, :1]])
    Y = np.hstack([rng.standard_normal((80, 1)) + 1.5, np.zeros((80, 1)), tiny[:, 1:]])
    response = X[:, 0] + rng.standard_normal(80)
    huge = rng.choice([-1e308, 0.0, 1e308], (80, 2))
    X, Y = np.hstack([X, huge[:, :1]]), np.hstack([Y, huge[:, 1:]])
    Z = JointSample(X, response)
    cases = [
        ((X, Y), RunConfig(seed=41, k=4, bandwidth=1.0), (1, 2)),
        ((X, Y), RunConfig(seed=41, k=4, bandwidth=None), (1, 2, 3)),
        ((X, Y), RunConfig(seed=41, k=4, method="poly-mmd"), (1, 2, 3)),
        ((X, Y), RunConfig(seed=41, k=4, method="poly-mmd", shared_bandwidth=True), (1, 2)),
        (Z, RunConfig(seed=41, k=4, method="multi-hsic"), (1, 2, 3)),
        (Z, RunConfig(seed=41, k=4, method="poly-hsic", estimator="block", block_size=8), (1, 2, 3)),
    ]
    for data, config, degenerate in cases:
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("ignore", ScalesDroppedWarning)
            report = select_and_test(data, config)
        flagged = {d["feature"]: d for d in report.diagnostics}
        p_by_feature = dict(zip(report.selected, report.p_values))
        assert all(0.0 <= p <= 1.0 for p in report.p_values), config
        for feature in degenerate:
            assert flagged[feature]["fallback"] == "degenerate-variance", config
            assert p_by_feature[feature] == 1.0


def test_degenerate_features_get_one_flag_under_every_method():
    # The flat, underflowing and overflowing columns of the test above: each
    # method gives each the same diagnostics, written before the method runs.
    rng = derive_rng(9)
    tiny = np.where(rng.random((80, 2)) < 0.5, 0.0, 1e-170)
    huge = rng.choice([-1e308, 0.0, 1e308], (80, 2))
    X = np.hstack([rng.standard_normal((80, 1)), np.zeros((80, 1)), tiny[:, :1], huge[:, :1]])
    Y = np.hstack([rng.standard_normal((80, 1)) + 1.5, np.zeros((80, 1)), tiny[:, 1:], huge[:, 1:]])
    Z = JointSample(X, X[:, 0] + rng.standard_normal(80))
    for method in ("multi-mmd", "poly-mmd", "multi-hsic", "poly-hsic"):
        data = Z if method.endswith("hsic") else (X, Y)
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("ignore", ScalesDroppedWarning)
            report = select_and_test(data, RunConfig(seed=41, k=4, method=method))
        diagnostics = {d["feature"]: d for d in report.diagnostics}
        for i in (1, 2, 3):
            assert diagnostics[i] == {"feature": i, "name": f"f{i}", "fallback": "degenerate-variance",
                                      "error": f"feature {i} has non-positive variance"}, method


def test_constant_response_still_raises():
    # A constant response raises under every kernel and estimator, where a
    # fixed-width or IMQ block estimate would test rounding noise.  Under the
    # median heuristic so does a response whose median squared difference
    # overflows: its width is infinite and its kernel constant.
    rng = derive_rng(9)
    X = rng.standard_normal((40, 3))
    median = RunConfig(seed=1, k=2, method="multi-hsic")
    fixed = [{"bandwidth": 1.0}, {"kernel_family": "imq"}]
    configs = [median] + [replace(median, **kernel) for kernel in fixed] + [
        replace(median, estimator="block", block_size=b, **kernel) for b in (5, 8, 13) for kernel in fixed]
    cases = [(np.ones(40), config) for config in configs] + [(np.resize([-1e308, 0.0, 1e308], 40), median)]
    for y, config in cases:
        with pytest.raises(DegenerateSampleError), np.errstate(over="ignore"):
            select_and_test(JointSample(X, y), config)


def test_overflowing_column_raises_no_runtime_warning():
    # Differences of -1e308 and 1e308 overflow to inf; the statistic forms
    # them knowingly, so no numpy overflow warning may reach the caller.
    rng = derive_rng(13)
    huge = rng.choice([-1e308, 0.0, 1e308], (80, 2))
    X = np.hstack([rng.standard_normal((80, 2)), huge[:, :1]])
    Y = np.hstack([rng.standard_normal((80, 2)) + 1.0, huge[:, 1:]])
    Z = JointSample(X, X[:, 0] + rng.standard_normal(80))
    cases = [
        ((X, Y), RunConfig(seed=43, k=2)),
        ((X, Y), RunConfig(seed=43, k=2, method="poly-mmd", bandwidth=1.0)),
        (Z, RunConfig(seed=43, k=2, method="multi-hsic", bandwidth=1.0)),
        (Z, RunConfig(seed=43, k=2, method="poly-hsic", estimator="block", block_size=8)),
    ]
    for data, config in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", ScalesDroppedWarning)
            report = select_and_test(data, config)
        assert all(0.0 <= p <= 1.0 for p in report.p_values), config


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("config", [
    RunConfig(seed=3, k=2, method="multi-mmd"),
    RunConfig(seed=3, k=2, method="poly-mmd", bandwidth=1.0),
    RunConfig(seed=3, k=2, method="multi-hsic", bandwidth=1.0),
    RunConfig(seed=3, k=2, method="poly-hsic"),
])
def test_non_finite_data_rejected(bad, config):
    rng = derive_rng(11)
    X, Y = gen_mean_shift(40, 4, 0.5, 1, rng)
    X[5, 2] = bad
    data = (X, Y) if config.family == "mmd" else JointSample(X, Y[:, 0])
    direct = (mmd_stat, (X, Y, config)) if config.family == "mmd" else (hsic_stat, (data, config))
    for run, args in ((select_and_test, (data, config)), direct):
        with pytest.raises(ValueError, match="data contain NaN or infinite values"):
            run(*args)


@pytest.mark.parametrize("config", [
    RunConfig(seed=3, k=1, method="multi-mmd"),
    RunConfig(seed=3, k=1, method="poly-mmd", kernel_family="imq"),
    RunConfig(seed=3, k=1, method="multi-hsic"),
    RunConfig(seed=3, k=1, method="poly-hsic", estimator="block", bandwidth=1.0),
])
def test_no_feature_columns_rejected(config):
    X = np.empty((20, 0))
    data = (X, X) if config.family == "mmd" else JointSample(X, derive_rng(13).standard_normal(20))
    with pytest.raises(DataShapeError, match="need at least one feature column"):
        select_and_test(data, config)

def test_block_estimator_rejected_for_mmd():
    for method in ("multi-mmd", "poly-mmd"):
        with pytest.raises(ValueError, match="HSIC methods only"):
            RunConfig(seed=1, method=method, estimator="block")
    assert RunConfig(seed=1, method="poly-hsic", estimator="block").estimator == "block"


def test_report_needs_k():
    rng = derive_rng(12)
    X, Y = gen_mean_shift(40, 4, 0.5, 1, rng)
    for method in ("multi-mmd", "poly-mmd"):
        with pytest.raises(ValueError, match="config.k"):
            select_and_test((X, Y), RunConfig(seed=1, method=method))


def test_poly_near_tie_is_clamped_into_interval():
    # A tie at the selection boundary makes a constraint active, so rounding
    # can put t_i an ulp or two outside its interval.  Such t_i are clamped
    # and flagged; every p-value is still a valid probability.
    rng = np.random.default_rng(0)
    clamped = 0
    for _ in range(160):
        A = rng.standard_normal((6, 6))
        factor = np.vstack([A.T, np.sqrt(0.1) * np.eye(6)])
        t = rng.standard_normal(6)
        j = rng.integers(1, 6)
        t[j] = t[0] * (1 + rng.choice([-1.0, 1.0]) * 1e-15)
        stat = MultiStat(t=t, factor=factor, n=100)
        report = selective_report(stat, RunConfig(seed=1, k=3, method="poly-mmd"))
        assert all(0.0 <= p <= 1.0 for p in report.p_values)
        clamped += sum(d.get("clamped", False) for d in report.diagnostics)
    assert clamped > 0


def test_report_p_values_are_the_per_feature_poly_p_values():
    # The report takes every tested feature's p-value from one array call of
    # poly_p; each equals the scalar call on that feature's truncated normal,
    # bit for bit.  Feature 5 has zero variance and is always selected; the
    # near-tie of feature 0 with feature j makes some Poly features clamped.
    rng = np.random.default_rng(0)
    clamped = 0
    for _ in range(60):
        A = rng.standard_normal((6, 6))
        factor = np.vstack([A.T, np.sqrt(0.1) * np.eye(6)])
        factor[:, 5] = 0.0
        t = rng.standard_normal(6)
        t[5] = 10.0
        j = rng.integers(1, 5)
        t[j] = t[0] * (1 + rng.choice([-1.0, 1.0]) * 1e-15)
        stat = MultiStat(t=t, factor=factor, n=100)
        for method in ("multi-mmd", "poly-mmd"):
            config = RunConfig(seed=1, k=4, method=method, replicates_per_scale=200)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ScalesDroppedWarning)
                report = selective_report(stat, config)
            for i, p, diag in zip(report.selected, report.p_values, report.diagnostics):
                if i == 5:
                    assert p == 1.0 and diag["fallback"] == "degenerate-variance"
                elif method == "multi-mmd":
                    assert p == poly_p(diag["beta0"], 1.0, diag["beta0"] + diag["phi_s0"], np.inf)
                else:
                    t_i = min(max(t[i], diag["vminus"]), diag["vplus"]) if diag.get("clamped") else t[i]
                    assert p == poly_p(float(t_i), float(stat.variances[i]), diag["vminus"], diag["vplus"])
                    clamped += diag.get("clamped", False)
    assert clamped > 0


def test_reports_never_form_the_d_by_d_covariance():
    # With d = 3000 features from l = 60 tuples, one d x d array takes
    # d^2 * 8 bytes = 72 MB; the factor holds 60 rows and Poly reads only
    # the k selected columns of the covariance.
    d = 3000
    X, Y = gen_mean_shift(60, d, 0.5, 10, derive_rng(3))
    for method in ("poly-mmd", "multi-mmd"):
        config = RunConfig(seed=1, k=10, method=method, replicates_per_scale=200)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ScalesDroppedWarning)
                select_and_test((X, Y), config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d * d * 8, (method, peak)


@pytest.mark.parametrize("signal, k", [
    ((), 3), ((4.0, 4.0), 3), ((1.0, 1.0, 1.0), 3), ((2.0,) * 5, 6), ((), 1),
], ids=["null-k3", "two-at-4-k3", "three-at-1-k3", "five-at-2-k6", "null-k1"])
def test_gaussian_layer_calibration_map(signal, k):
    # t ~ N(mu, I) over 10 features, mu holding ``signal`` on the first ones,
    # and Sigma = I known: the p-values of the selected null features
    # (mu_i = 0) are pooled over 500 draws.  Poly is exact for its event, so
    # P(p < alpha) lies within 4 binomial SDs of alpha; Multi is valid, at
    # most alpha + 4 SDs.  B = 1000 replicates per scale (half the default)
    # keep the five rows near 10 s.
    alpha, mu = 0.05, np.zeros(10)
    mu[:len(signal)] = signal
    rng = np.random.default_rng(5)
    pooled = {"multi-mmd": [], "poly-mmd": []}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalesDroppedWarning)
        for draw in range(500):
            stat = MultiStat(t=mu + rng.standard_normal(10), factor=np.eye(10), n=1000)
            for method, p_values in pooled.items():
                config = RunConfig(seed=draw, k=k, method=method, replicates_per_scale=1000)
                report = selective_report(stat, config)
                p_values += [p for i, p in zip(report.selected, report.p_values) if mu[i] == 0]
    for method, p_values in pooled.items():
        rate, sd = np.mean(np.array(p_values) < alpha), np.sqrt(alpha * (1 - alpha) / len(p_values))
        assert rate <= alpha + 4 * sd, (method, rate, len(p_values))
        if method == "poly-mmd":
            assert rate >= alpha - 4 * sd, (method, rate, len(p_values))


def test_multi_not_less_powerful_than_poly_on_true_features():
    # Shared data and seeds; average p-values on the truly shifted features.
    trials = 12
    multi_means = []
    poly_means = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalesDroppedWarning)
        for trial in range(trials):
            rng = derive_rng(1000, trial)
            X, Y = gen_mean_shift(250, 12, 0.8, 4, rng)
            config = RunConfig(seed=derive_seed(1000, trial), k=6)
            stat = mmd_stat(X, Y, config)
            multi = selective_report(stat, config)
            poly = selective_report(stat, replace(config, method="poly-mmd"))
            true_set = set(range(4))
            m = [p for i, p in zip(multi.selected, multi.p_values) if i in true_set]
            q = [p for i, p in zip(poly.selected, poly.p_values) if i in true_set]
            if m and q:
                multi_means.append(np.mean(m))
                poly_means.append(np.mean(q))
    assert np.mean(multi_means) <= np.mean(poly_means) + 0.02


def test_threads_do_not_change_results():
    rng = derive_rng(10)
    X, Y = gen_mean_shift(100, 6, 0.5, 2, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalesDroppedWarning)
        serial = select_and_test((X, Y), RunConfig(seed=77, k=3, threads=1))
        threaded = select_and_test((X, Y), RunConfig(seed=77, k=3, threads=4))
    assert serial.p_values == threaded.p_values
    assert serial.selected == threaded.selected


@st.composite
def _draw_matrices(draw):
    b = draw(st.integers(1, 40))
    d = draw(st.integers(1, 8))
    # A small value pool makes ties common, signed zeros included.
    values = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0]) | st.floats(-3, 3)
    draws = draw(arrays(np.float64, (b, d), elements=values))
    constant = draw(arrays(np.bool_, d))
    draws[:, constant] = draw(st.sampled_from([0.0, 1.0]))
    return draws, draw(st.integers(1, d))


@settings(max_examples=300, deadline=None)
@given(_draw_matrices())
def test_top_k_counts_match_selection_indicator(case):
    draws, k = case
    counts = _top_k_counts(draws, k)
    for i in range(draws.shape[1]):
        assert counts[i] == selection_indicator(draws, i, k).sum()


@st.composite
def _tied_draws(draw):
    # Wide rows where several columns tie exactly at the k-th value (signed
    # zeros among them), constant columns, and k from 1 to d.
    d = draw(st.sampled_from([2, 5, 50, 300]))
    k = draw(st.sampled_from(sorted({1, max(1, d // 3), max(1, d - 1), d})))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array([-1.5, -0.0, 0.0, 0.25, 1.0])
    draws = rng.choice(pool, (draw(st.integers(1, 30)), d)) if draw(st.booleans()) \
        else rng.standard_normal((draw(st.integers(1, 30)), d))
    for row in draws:
        kth = np.sort(row)[d - k]
        ties = rng.choice(d, int(rng.integers(1, d + 1)), replace=False)
        row[ties] = np.where(rng.random(ties.size) < 0.5, kth, -kth if kth == 0 else kth)
    constant = rng.random(d) < 0.2
    draws[:, constant] = rng.choice(pool)
    return draws, k


@settings(max_examples=60, deadline=None)
@given(_tied_draws())
def test_top_k_counts_match_selection_indicator_wide_ties(case):
    draws, k = case
    counts = _top_k_counts(draws, k)
    for i in range(draws.shape[1]):
        assert counts[i] == selection_indicator(draws, i, k).sum()


def _poly_interval_oracle(t, sigma, selected, i):
    """The per-feature constraint loop the batched intervals replaced; it
    reads only the columns of ``sigma`` that belong to selected features."""
    d = t.shape[0]
    sel = list(selected)
    if i not in sel:
        raise ValueError(f"feature {i} is not in the selected set")
    rest = [j for j in range(d) if j not in sel]
    eta_var = float(sigma[i, i])
    if eta_var <= 0:
        raise DegenerateFeatureError(f"feature {i} has non-positive variance")
    if not rest:
        return -np.inf, np.inf
    c = sigma[:, i] / eta_var
    z = t - c * t[i]
    vminus, vplus = -np.inf, np.inf
    for a in sel:
        ac = c[rest] - c[a]
        az = z[rest] - z[a]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = -az / ac
        neg = ac < 0
        pos = ac > 0
        if neg.any():
            vminus = max(vminus, float(ratio[neg].max()))
        if pos.any():
            vplus = min(vplus, float(ratio[pos].min()))
    return vminus, vplus


@st.composite
def _poly_problem(draw):
    d = draw(st.integers(2, 9))
    # A small value pool gives ties in t, signed zeros included.
    values = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0]) | st.floats(-3, 3)
    t = draw(arrays(np.float64, d, elements=values))
    # The factor Aᵀ of Sigma = A Aᵀ.  rank < d makes Sigma singular; a zero
    # row of A a zero-variance feature.
    A = draw(arrays(np.float64, (d, draw(st.integers(1, d + 1))), elements=values))
    A[draw(arrays(np.bool_, d)) & draw(st.booleans())] = 0.0
    k = draw(st.sampled_from([1, d - 1, d]) | st.integers(1, d))
    return t, A.T, k


def _untruncated_tests(stat, selected, beta0, config):
    """A method that gives every selected feature N(0, 1) on the whole line at 0."""
    k = len(selected)
    return np.zeros(k), np.ones(k), np.full(k, -np.inf), np.full(k, np.inf), [{} for _ in selected]


@settings(max_examples=300, deadline=None)
@given(_poly_problem())
# A subnormal covariance: a ratio overflows to inf.
@example((np.array([-1.5, -0.0, -0.0]), np.array([[-2.2250738585072014e-309, 1.5, 0.0]]), 2))
# A subnormal variance beside huge ones: c overflows and a ratio is inf / inf = NaN.
@example((np.array([2.0, 1.0, 0.5]), np.array([[1e-160, 1e150, 1e150], [0.0, 0.0, 1.0]]), 2))
def test_poly_intervals_match_per_feature_loop(case):
    t, factor, k = case
    sel = select_top_k(t, k)
    vminus, vplus = poly_truncation_intervals(t, factor, sel)
    # The oracle gets the same columns factorᵀ factor[:, S]; the others are never read.
    sigma = np.full((t.size, t.size), np.nan)
    sigma[:, list(sel)] = factor.T @ factor[:, list(sel)]
    for j, i in enumerate(sel):
        try:
            with np.errstate(all="ignore"):
                expected = _poly_interval_oracle(t, sigma, sel, i)
        except DegenerateFeatureError:
            assert np.isnan(vminus[j]) and np.isnan(vplus[j])
            # The shared report builder flags the feature, whatever the method gives.
            with mock.patch.object(selective, "_poly_tests", _untruncated_tests):
                report = _report(MultiStat(t, factor, n=2), RunConfig(seed=0, k=k, method="poly-mmd"))
            assert report.p_values[j] == 1.0
            assert report.diagnostics[j]["error"] == f"feature {i} has non-positive variance"
            continue
        assert (vminus[j], vplus[j]) == expected


@st.composite
def _report_problem(draw):
    """A statistic with zero-variance features, some at t != 0, and perhaps
    a duplicated feature; k from 1 to d; and a method."""
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.standard_normal(d) * draw(st.sampled_from([0.5, 3.0]))
    factor = rng.standard_normal((draw(st.integers(1, d + 1)), d))
    factor[:, draw(arrays(np.bool_, d))] = 0.0
    if d > 1 and draw(st.booleans()):
        a, b = draw(st.permutations(range(d)))[:2]
        t[b], factor[:, b] = t[a], factor[:, a]
    config = RunConfig(seed=draw(st.integers(0, 2**32 - 1)), k=draw(st.integers(1, d)),
                       method=draw(st.sampled_from(["multi-mmd", "poly-mmd"])), replicates_per_scale=200)
    return MultiStat(t, factor, n=draw(st.integers(4, 400))), config


def _report_outcome(build, stat, config):
    try:
        report = build(stat, config)
    except ValueError as error:
        return repr(error)
    return report.selected, np.array(report.p_values).tobytes(), report.diagnostics, report.method


@settings(max_examples=150, deadline=None)
@given(_report_problem())
def test_report_matches_the_per_feature_callback_oracle(case):
    stat, config = case
    assert _report_outcome(_report, stat, config) == _report_outcome(oracles.report, stat, config)


@st.composite
def _permuted_problem(draw):
    n = draw(st.integers(24, 48))
    d = draw(st.integers(2, 6))
    perm = np.array(draw(st.permutations(range(d))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Rounding to a coarse grid gives tied values.
    X = np.round(rng.standard_normal((n, d)), draw(st.integers(0, 3)))
    return X, rng.standard_normal((n, d)) + 0.3, X[:, 0] + rng.standard_normal(n), perm


@settings(max_examples=40, deadline=None)
@given(_permuted_problem())
def test_statistic_equivariant_under_feature_permutation(case):
    X, Y, y, perm = case
    Xp = X[:, perm]
    cases = [
        ((X, Y), (Xp, Y[:, perm]), RunConfig(seed=5, k=1)),
        (JointSample(X, y), JointSample(Xp, y), RunConfig(seed=5, k=1, method="multi-hsic")),
        (JointSample(X, y), JointSample(Xp, y),
         RunConfig(seed=5, k=1, method="poly-hsic", estimator="block", block_size=6)),
    ]
    for data, permuted, config in cases:
        stat = statistic(data, config)
        stat_p = statistic(permuted, config)
        assert np.array_equal(stat_p.t, stat.t[perm]), config
        sigma, sigma_p = stat.factor.T @ stat.factor, stat_p.factor.T @ stat_p.factor
        assert np.allclose(sigma_p, sigma[np.ix_(perm, perm)], rtol=0, atol=1e-12), config


@st.composite
def _small_problem(draw):
    n = draw(st.integers(24, 40))
    d = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = draw(st.floats(0.0, 1.5))
    X = rng.standard_normal((n, d))
    Y = rng.standard_normal((n, d))
    Y[:, 0] += shift
    # Sometimes the last feature is flat: constant, or with differences that square to 0.
    X[:, -1] *= draw(st.sampled_from([1.0, 0.0, 1e-170]))
    return X, Y, shift * X[:, 0] + rng.standard_normal(n), draw(st.integers(1, d)), draw(st.integers(0, 999))


@settings(max_examples=25, deadline=None)
@given(_small_problem(), st.sampled_from(["incomplete", "block"]))
def test_report_invariants(case, hsic_estimator):
    # p in [0, 1]; Multi p >= the naive p Φ̄(β0); Poly t_i inside [v-, v+]
    # once a near-tie has been clamped.
    X, Y, y, k, seed = case
    for method in ("multi-mmd", "poly-mmd", "multi-hsic", "poly-hsic"):
        config = RunConfig(seed=seed, k=k, method=method, replicates_per_scale=300)
        data = (X, Y)
        if config.family == "hsic":
            config = replace(config, estimator=hsic_estimator, block_size=6)
            data = JointSample(X, y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScalesDroppedWarning)
            stat = statistic(data, config)
            report = selective_report(stat, config)
        for i, p, diag in zip(report.selected, report.p_values, report.diagnostics):
            assert 0.0 <= p <= 1.0, (config, diag)
            if method.startswith("multi-") and "beta0" in diag:
                assert p >= norm.sf(diag["beta0"]) * (1.0 - 1e-9), (config, diag)
            if method.startswith("poly-") and "vminus" in diag:
                vminus, vplus, t_i = diag["vminus"], diag["vplus"], float(stat.t[i])
                if diag.get("clamped"):
                    t_i = min(max(t_i, vminus), vplus)
                assert vminus <= t_i <= vplus, (config, diag)
