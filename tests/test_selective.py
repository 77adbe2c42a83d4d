import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import norm, truncnorm

from selkern import (
    RunConfig,
    ScalesDroppedWarning,
    derive_rng,
    derive_seed,
    gen_logistic,
    gen_mean_shift,
    mmd_stat,
    multi_hsic,
    multi_mmd,
    poly_hsic,
    poly_mmd,
    poly_p,
    poly_truncation_interval,
    report_for_method,
    select_top_k,
    selection_indicator,
)
from selkern.selective import _top_k_fractions


def test_select_top_k_basic():
    assert select_top_k(np.array([3.0, 1.0, 2.0]), 2).selected == (0, 2)


def test_select_top_k_all():
    res = select_top_k(np.array([1.0, 3.0, 2.0]), 3)
    assert res.selected == (1, 2, 0)
    assert set(res.selected) == {0, 1, 2}


def test_select_top_k_tie_to_lowest_index():
    assert select_top_k(np.array([1.0, 1.0, 0.0]), 1).selected == (0,)
    assert select_top_k(np.array([1.0, 1.0, 1.0]), 2).selected == (0, 1)


def test_select_top_k_range_errors():
    with pytest.raises(ValueError):
        select_top_k(np.array([1.0, 2.0]), 0)
    with pytest.raises(ValueError):
        select_top_k(np.array([1.0, 2.0]), 3)


def test_selection_indicator_k_equals_d():
    region = selection_indicator(2, 3)
    pts = np.random.default_rng(0).standard_normal((100, 3))
    assert region.contains(pts).all()


def test_selection_indicator_two_dims():
    region = selection_indicator(0, 1)
    assert region.contains(np.array([[2.0, 1.0]]))[0]
    assert not region.contains(np.array([[1.0, 2.0]]))[0]
    # Tie goes to the lower index.
    assert region.contains(np.array([[1.0, 1.0]]))[0]
    assert not selection_indicator(1, 1).contains(np.array([[1.0, 1.0]]))[0]


def test_selection_indicator_agrees_with_top_k():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        d = int(rng.integers(2, 8))
        k = int(rng.integers(1, d + 1))
        scores = rng.standard_normal(d)
        if rng.random() < 0.3:
            scores[rng.integers(0, d)] = scores[rng.integers(0, d)]  # inject ties
        member = set(select_top_k(scores, k).selected)
        for i in range(d):
            assert selection_indicator(i, k).contains(scores[None, :])[0] == (i in member)


def test_poly_interval_two_dims():
    t = np.array([2.0, 0.7])
    res = select_top_k(t, 1)
    vminus, vplus = poly_truncation_interval(t, np.eye(2), res, 0)
    assert vminus == pytest.approx(0.7, abs=1e-12)
    assert vplus == np.inf


def test_poly_interval_no_constraints_when_k_is_d():
    t = np.array([1.0, -0.5, 0.3])
    res = select_top_k(t, 3)
    assert poly_truncation_interval(t, np.eye(3), res, 1) == (-np.inf, np.inf)


def test_poly_interval_contains_observation():
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d))
        t = rng.standard_normal(d)
        A = rng.standard_normal((d, d)) / np.sqrt(d)
        sigma = A @ A.T + 0.1 * np.eye(d)
        res = select_top_k(t, k)
        for i in res.selected:
            vminus, vplus = poly_truncation_interval(t, sigma, res, i)
            assert vminus <= t[i] <= vplus


def test_poly_interval_rejects_unselected_feature():
    t = np.array([2.0, 0.7])
    with pytest.raises(ValueError):
        poly_truncation_interval(t, np.eye(2), select_top_k(t, 1), 1)


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


def _single_feature_problem(seed):
    rng = derive_rng(seed)
    X = rng.standard_normal((120, 1))
    Y = rng.standard_normal((120, 1)) + 0.6
    return X, Y


def test_k_equals_d_equals_one_reduces_to_classical():
    X, Y = _single_feature_problem(4)
    config = RunConfig(seed=9, k=1)
    with pytest.warns(ScalesDroppedWarning):
        multi = multi_mmd(X, Y, 1, config)
    poly = poly_mmd(X, Y, 1, config)
    stat = mmd_stat(X, Y, config)
    classical = norm.sf(stat.t[0] / np.sqrt(stat.sigma[0, 0]))
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
        multi = multi_mmd(X, Y, 4, config)
    poly = poly_mmd(X, Y, 4, config)
    assert multi.selected == poly.selected


def test_report_shape_and_bounds():
    rng = derive_rng(6)
    X, Y = gen_mean_shift(100, 6, 0.4, 2, rng)
    config = RunConfig(seed=17, k=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalesDroppedWarning)
        for report in (multi_mmd(X, Y, 3, config), poly_mmd(X, Y, 3, config)):
            assert len(report.p_values) == 3
            assert all(0.0 <= p <= 1.0 and np.isfinite(p) for p in report.p_values)
            assert len(report.diagnostics) == 3
            assert report.config["seed"] == 17
            assert "threads" not in report.config
    scale_count = RunConfig(seed=0).scale_count
    for diag in multi_mmd(X, Y, 3, config).diagnostics:
        assert len(diag["bootstrap_probabilities"]) == len(diag["psi"]) == scale_count
        if "fit_beta0" in diag:
            assert {"fit_weighted_rss", "fit_rmse", "fit_max_abs_residual"} <= diag.keys()


def test_hsic_reports_run():
    rng = derive_rng(7)
    Z = gen_logistic(120, 6, 2, rng)
    config = RunConfig(seed=23, k=3, method="multi-hsic")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalesDroppedWarning)
        multi = multi_hsic(Z, 3, config)
    poly = poly_hsic(Z, 3, config)
    assert multi.selected == poly.selected
    assert all(0.0 <= p <= 1.0 for p in multi.p_values + poly.p_values)


def test_block_estimator_path():
    rng = derive_rng(8)
    Z = gen_logistic(100, 5, 2, rng)
    config = RunConfig(seed=29, k=2, estimator="block", block_size=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalesDroppedWarning)
        report = multi_hsic(Z, 2, config)
    assert len(report.p_values) == 2
    assert all(0.0 <= p <= 1.0 for p in report.p_values)


def test_degenerate_feature_yields_conservative_p():
    # A constant column has zero h-variance; the test flags it and reports 1.
    rng = derive_rng(9)
    X = np.hstack([rng.standard_normal((80, 1)), np.zeros((80, 1))])
    Y = np.hstack([rng.standard_normal((80, 1)) + 1.5, np.zeros((80, 1))])
    config = RunConfig(seed=41, k=2, bandwidth=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScalesDroppedWarning)
        report = multi_mmd(X, Y, 2, config)
    flagged = {d["feature"]: d for d in report.diagnostics}
    assert flagged[1]["fallback"] == "degenerate-variance"
    p_by_feature = dict(zip(report.selected, report.p_values))
    assert p_by_feature[1] == 1.0


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
            multi = report_for_method("multi-mmd", stat, 250, 6, config)
            poly = report_for_method("poly-mmd", stat, 250, 6, config)
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
        serial = multi_mmd(X, Y, 3, RunConfig(seed=77, k=3, threads=1))
        threaded = multi_mmd(X, Y, 3, RunConfig(seed=77, k=3, threads=4))
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
def test_top_k_fractions_match_selection_indicator(case):
    draws, k = case
    fractions = _top_k_fractions(draws, k)
    for i in range(draws.shape[1]):
        assert fractions[i] == selection_indicator(i, k).contains(draws).mean()
