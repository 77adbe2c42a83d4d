import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.stats import norm

from selkern import (
    DegenerateFeatureError,
    InsufficientScalesError,
    MultiStat,
    ScaleSet,
    default_scales,
    fit_scaling_law,
    flat_hypothesis_distance,
    psi_transform,
    psi_variance,
    selective_p_detail,
)
from selkern.multiscale import fit_bootstrap_probabilities, log_ndtr, ndtri
from selkern.selective import _selection_fractions


def test_psi_at_half_is_zero():
    assert psi_transform(0.5, 1.7) == 0.0


def test_psi_inverse_identity():
    assert psi_transform(norm.sf(2.0), 1.0) == pytest.approx(2.0, abs=1e-10)


def test_psi_gamma_scaling():
    assert psi_transform(norm.sf(1.0), 4.0) == pytest.approx(2.0, abs=1e-10)


def test_psi_rejects_degenerate_bp():
    with pytest.raises(ValueError):
        psi_transform(0.0, 1.0)
    with pytest.raises(ValueError):
        psi_transform(1.0, 1.0)


def test_psi_variance_delta_method():
    bp, gamma2, b = 0.3, 1.5, 2000
    z = norm.isf(bp)
    expected = gamma2 * bp * (1 - bp) / (b * norm.pdf(z) ** 2)
    assert psi_variance(bp, gamma2, b) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("bp, b_reps", [(0.0, 2000), (1.0, 2000), (-0.1, 2000), (1.5, 2000),
                                         (float("nan"), 2000), (0.3, 0)])
def test_psi_variance_rejects_degenerate_inputs(bp, b_reps):
    with pytest.raises(ValueError):
        psi_variance(bp, 1.0, b_reps)


def _assert_log_ndtr_close(got, x):
    # scipy flushes the far right tail (|value| < 1e-300) to -0.0.
    want = special.log_ndtr(x)
    if abs(want) >= 1e-300:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), x
    else:
        assert abs(got - want) <= 1e-300, x


@settings(max_examples=500, deadline=None)
@given(st.floats(-1e3, 40.0))
def test_log_ndtr_matches_scipy(x):
    _assert_log_ndtr_close(log_ndtr(x), x)


def test_log_ndtr_array_matches_scipy_and_scalar_calls():
    # Dense across the branch points x = -20 and x = 0 and the right tail.
    x = np.concatenate([np.linspace(-1e3, 40.0, 20800), np.linspace(-25.0, 10.0, 7000)]).reshape(2, 100, 139)
    got = log_ndtr(x)
    assert got.shape == x.shape and got.dtype == np.float64
    for xi, gi in zip(x.ravel().tolist(), got.ravel().tolist()):
        assert gi == log_ndtr(xi)
        _assert_log_ndtr_close(gi, xi)
    assert log_ndtr(np.array([])).shape == (0,)


def test_log_ndtr_special_values_are_exact():
    for x in (np.inf, -np.inf, 0.0, -0.0):
        for got in (log_ndtr(x), log_ndtr(np.array([x]))[0]):
            want = special.log_ndtr(x)
            assert got == want and np.signbit(got) == np.signbit(want), x
    assert np.isnan(log_ndtr(np.nan)) and np.isnan(log_ndtr(np.array([np.nan]))).all()
    assert type(log_ndtr(1.0)) is float and type(log_ndtr(np.float64(-30.0))) is float


def _assert_ndtri_close(p):
    want = special.ndtri(p)
    assert abs(ndtri(p) - want) <= 8 * np.spacing(abs(want)), p


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_ndtri_within_8_ulp_of_scipy(p):
    _assert_ndtri_close(p)


def test_ndtri_on_bootstrap_fractions_and_extremes():
    for p in [j / 2000 for j in range(1, 2000)] + [1e-300, 5e-324, 1e-10, 0.5, 1 - 2**-53]:
        _assert_ndtri_close(p)


def test_fit_exact_line():
    gamma2 = np.linspace(0.5, 2.0, 10)
    points = [(g, 1.0 + 0.5 * g) for g in gamma2]
    fit = fit_scaling_law(points)
    assert fit.beta0 == pytest.approx(1.0, abs=1e-10)
    assert fit.beta1 == pytest.approx(0.5, abs=1e-10)
    assert fit.predict(-1.0) == pytest.approx(0.5, abs=1e-10)


def test_fit_constant_points():
    points = [(g, 3.25) for g in (0.5, 1.0, 2.0)]
    fit = fit_scaling_law(points)
    assert fit.beta0 == pytest.approx(3.25, abs=1e-12)
    assert fit.beta1 == pytest.approx(0.0, abs=1e-12)


def test_fit_weights_change_solution():
    points = [(0.5, 1.0), (1.0, 2.0), (2.0, 1.0)]
    unweighted = fit_scaling_law(points)
    weighted = fit_scaling_law(points, weights=[100.0, 1.0, 100.0])
    assert unweighted.beta0 != weighted.beta0


def test_fit_requires_three_points():
    with pytest.raises(InsufficientScalesError):
        fit_scaling_law([(0.5, 1.0), (1.0, 2.0)])


def test_fit_noisy_recovery():
    # Half-space at distance 1: BP(gamma^2) = survival(1 / gamma), psi = 1.
    rng = np.random.default_rng(0)
    b = 10_000
    points = []
    weights = []
    for g2 in np.exp(np.linspace(np.log(0.5), np.log(2.0), 10)):
        bp_true = norm.sf(1.0 / np.sqrt(g2))
        bp = rng.binomial(b, bp_true) / b
        points.append((g2, psi_transform(bp, g2)))
        weights.append(1.0 / psi_variance(bp, g2, b))
    fit = fit_scaling_law(points, weights)
    assert fit.beta0 == pytest.approx(1.0, abs=0.05)
    assert fit.beta1 == pytest.approx(0.0, abs=0.05)


def test_default_scales_endpoints():
    scales = default_scales(1000)
    # Resampling sizes n' = 2000 down to 500.
    assert scales.scales[0] == 1000 / 2000 and scales.scales[-1] == 1000 / 500
    assert len(scales.scales) == 10


def test_default_scales_monotone():
    n = 137
    scales = default_scales(n)
    assert all(b > a for a, b in zip(scales.scales, scales.scales[1:]))
    # gamma^2 = n / n' with n' >= 2.
    assert max(scales.scales) <= n / 2


def test_default_scales_too_few():
    with pytest.raises(InsufficientScalesError):
        default_scales(4, count=3, low=1.0, high=1.05)


def test_scale_set_validation():
    with pytest.raises(InsufficientScalesError):
        ScaleSet(scales=(0.5, 1.0))
    with pytest.raises(ValueError):
        ScaleSet(scales=(1.0, 1.0, 0.5))
    for gammas in ((np.nan,) * 3, (0.5, np.nan, 2.0), (-1.0, 0.5, 1.0)):
        with pytest.raises(ValueError):
            ScaleSet(scales=gammas)


def _half_space_fractions(a, gamma2s, b_reps, seed):
    """Bootstrap probabilities of feature 0 winning top-1 of d = 2 under
    Sigma = I at mean (a, 0), one per scale, with their analytic targets:
    y_0 - y_1 ~ N(a, 2 gamma^2), so the target is Phi(a / (gamma sqrt 2))."""
    scales = ScaleSet(scales=tuple(gamma2s), replicates_per_scale=b_reps)
    fractions = _selection_fractions(np.array([a, 0.0]), np.eye(2), 1, scales, seed)
    # Every draw selects exactly one of the two features.
    np.testing.assert_allclose(fractions.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    return fractions[:, 0], norm.cdf(a / np.sqrt(2.0 * np.array(gamma2s)))


def _assert_within_3_sd(bp, target, b_reps):
    assert abs(bp - target) <= 3 * np.sqrt(target * (1 - target) / b_reps)


def test_bootstrap_probability_everything():
    # Every draw selects exactly k features, so the fractions sum to k; with
    # k = d every feature is selected in every draw.
    scales = ScaleSet(scales=(0.5, 1.0, 2.0), replicates_per_scale=500)
    t = np.array([0.3, 0.0, -0.2, 0.1])
    for k in (1, 2, 3):
        fractions = _selection_fractions(t, np.eye(4), k, scales, 0)
        np.testing.assert_allclose(fractions.sum(axis=1), k, rtol=0, atol=1e-12)
    assert (_selection_fractions(t, np.eye(4), 4, scales, 0) == 1.0).all()


def test_bootstrap_probability_halfspace_through_mean():
    b = 10_000
    bps, targets = _half_space_fractions(0.0, (0.5, 1.0, 2.0), b, 1)
    assert (targets == 0.5).all()
    for bp, target in zip(bps, targets):
        _assert_within_3_sd(bp, target, b)


def test_bootstrap_probability_analytic_tail():
    b = 10_000
    bps, targets = _half_space_fractions(-np.sqrt(2.0), (0.5, 1.0, 2.0), b, 2)
    assert targets[1] == pytest.approx(norm.sf(1.0), rel=1e-12)
    for bp, target in zip(bps, targets):
        _assert_within_3_sd(bp, target, b)


def test_bootstrap_probability_gamma_scaling():
    b = 20_000
    bps, targets = _half_space_fractions(-np.sqrt(2.0), (1.0, 2.0, 4.0), b, 3)
    assert targets[2] == pytest.approx(norm.cdf(-0.5), rel=1e-12)
    for bp, target in zip(bps, targets):
        _assert_within_3_sd(bp, target, b)


def test_bootstrap_probability_rejects_bad_inputs():
    # The bootstrap's factor comes from the statistic's rows, so non-finite
    # rows are rejected where the statistic is built.
    for bad in (np.nan, np.inf, -np.inf):
        rows = np.ones((5, 2))
        rows[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            MultiStat.from_rows(rows, ddof=1, n=10)


@st.composite
def _h_rows(draw):
    """(l, d) h-rows with l < d, l = d or l > d, some columns all zero and
    some duplicates of others; a ddof; and a non-empty column set S."""
    l, d = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = np.random.default_rng(seed).standard_normal((l, d)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    for j in range(d):
        kind = draw(st.sampled_from(["free", "free", "zero", "copy"]))
        if kind == "zero":
            rows[:, j] = 0.0
        elif kind == "copy":
            rows[:, j] = rows[:, draw(st.integers(0, d - 1))]
    sel = sorted(draw(st.sets(st.integers(0, d - 1), min_size=1)))
    return rows, draw(st.sampled_from([0, 1] if l > 1 else [0])), sel


@settings(max_examples=200, deadline=None)
@given(_h_rows())
def test_factor_is_exact_for_every_rank(case):
    rows, ddof, sel = case
    l, d = rows.shape
    stat = MultiStat.from_rows(rows, ddof=ddof, n=2 * l)
    factor = stat.factor
    assert factor.shape == (min(l, d), d)
    assert np.array_equal(np.triu(factor), factor)
    assert (np.diag(factor) >= 0).all()
    # The variances and the columns Sigma[:, S] the reports read, against
    # the covariance the factor stands for.
    centered = rows - rows.mean(axis=0)
    sigma = centered.T @ centered / (l - ddof)
    scale = max(float(np.max(np.diag(sigma))), np.finfo(float).tiny)
    np.testing.assert_allclose(stat.variances, np.diag(sigma), rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(factor.T @ factor[:, sel], sigma[:, sel], rtol=0, atol=1e-12 * scale)
    # An all-zero h column has an exactly zero factor column, so that
    # feature's draws are its t at every scale.
    zero = ~rows.any(axis=0)
    assert (factor[:, zero] == 0.0).all()
    normals = np.random.default_rng(0).standard_normal((50, factor.shape[0]))
    assert ((normals @ factor * np.sqrt(2.0) + stat.t)[:, zero] == stat.t[zero]).all()


def test_bootstrap_probability_rank_deficient_exact():
    # h2 = h0 + h1 and h3 = h0 make Sigma rank 2 of 4; the draws must keep
    # both relations exactly (a 1e-10 diagonal jitter breaks them at 1e-5).
    rng = np.random.default_rng(7)
    h = rng.standard_normal((50, 2))
    rows = np.column_stack([h[:, 0], h[:, 1], h[:, 0] + h[:, 1], h[:, 0]])
    stat = MultiStat.from_rows(rows, ddof=1, n=50)
    assert stat.factor.shape == (4, 4)
    draws = rng.standard_normal((4000, 4)) @ stat.factor
    np.testing.assert_allclose(draws[:, 2], draws[:, 0] + draws[:, 1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(draws[:, 3], draws[:, 0], rtol=0, atol=1e-12)
    # Feature 3 sits 1e-9 above its duplicate, feature 0, so it beats it in
    # every replicate and feature 0 is never the top one.
    t = np.array([0.0, 0.0, 0.0, 1e-9])
    scales = ScaleSet(scales=(0.5, 1.0, 2.0), replicates_per_scale=4000)
    fractions = _selection_fractions(t, stat.factor, 1, scales, 4)
    assert (fractions[:, 0] == 0.0).all()
    assert (fractions[:, 3] > 0.2).all()


def test_selective_p_unconstrained_selection():
    assert selective_p_detail(1.5, -np.inf)[0] == pytest.approx(norm.sf(1.5), rel=1e-10)


def test_selective_p_both_boundaries():
    assert selective_p_detail(0.0, 0.0)[0] == 1.0


def test_selective_p_gaussian_quantile():
    assert selective_p_detail(1.6449, -np.inf)[0] == pytest.approx(0.05, abs=1e-4)


def test_selective_p_dominates_classical():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.normal(scale=2.0)
        s = -abs(rng.normal(scale=2.0))
        p = selective_p_detail(a, s)[0]
        assert norm.sf(a) - 1e-12 <= p <= 1.0


def test_selective_p_deep_tail_stable():
    # Far beyond where survival functions underflow, the ratio still resolves.
    p = selective_p_detail(42.0, -1.0)[0]
    assert 0.0 < p < 1.0
    assert p == pytest.approx(np.exp(norm.logsf(42.0) - norm.logsf(41.0)), rel=1e-6)


def test_selective_p_degenerate_denominator_flag():
    p, degenerate = selective_p_detail(3.0, np.inf)
    assert p == 1.0 and degenerate


def test_flat_hypothesis_distance():
    stat = MultiStat(t=np.array([0.0, 2.0]), factor=np.diag([1.0, 2.0]), n=10)
    assert flat_hypothesis_distance(stat, 0) == 0.0
    assert flat_hypothesis_distance(stat, 1) == 1.0
    rng = np.random.default_rng(6)
    t = rng.standard_normal(3)
    sd = rng.random(3) + 0.5
    stat = MultiStat(t=t, factor=np.diag(sd), n=5)
    for i in range(3):
        assert flat_hypothesis_distance(stat, i) == t[i] / np.sqrt(sd[i] ** 2)


def test_flat_hypothesis_distance_zero_variance():
    stat = MultiStat(t=np.array([1.0]), factor=np.array([[0.0]]), n=5)
    with pytest.raises(DegenerateFeatureError):
        flat_hypothesis_distance(stat, 0)


def _selection_fit(mean, factor, k, scales, seed):
    """The pipeline's bootstrap for feature 0: fractions, then the scaling-law fit."""
    fractions = _selection_fractions(np.asarray(mean, dtype=float), factor, k, scales, seed)
    return fractions, *fit_bootstrap_probabilities(fractions[:, 0], scales)


def test_region_scaling_halfspace_recovery():
    # With Sigma = I / 2, y_0 - y_1 ~ N(a, gamma^2): BP = Phi(a / gamma), so
    # psi = -a at every scale and the fit recovers beta0 = -a, beta1 = 0.
    a = 0.5
    scales = default_scales(1000, replicates_per_scale=10_000)
    _, fit, info = _selection_fit([a, 0.0], np.eye(2) / np.sqrt(2.0), 1, scales, 11)
    assert fit is not None
    assert fit.beta0 == pytest.approx(-a, abs=0.05)
    assert fit.beta1 == pytest.approx(0.0, abs=0.05)
    assert info["scales_dropped"] == 0


def test_region_scaling_degenerate_region_returns_none():
    # k = d: every feature is selected in every draw.
    scales = default_scales(100, replicates_per_scale=200)
    _, fit, info = _selection_fit(np.zeros(2), np.eye(2), 2, scales, 12)
    assert fit is None
    assert info["scales_dropped"] == len(scales.scales)


def test_region_scaling_deterministic():
    scales = default_scales(200, replicates_per_scale=500)
    first, second = (_selection_fit([0.5, 0.0], np.eye(2), 1, scales, 13) for _ in range(2))
    assert np.array_equal(first[0], second[0])
    assert (first[1].beta0, first[1].beta1) == (second[1].beta0, second[1].beta1)
