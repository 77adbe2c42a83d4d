import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.stats import norm

import oracles
from selkern import (
    DegenerateFeatureError,
    InsufficientScalesError,
    MultiStat,
    RunConfig,
    default_scales,
    poly_p,
)
from selkern import selective
from selkern.multiscale import _weighted_lines, fit_bootstrap_probabilities, log_ndtr, ndtri
from selkern.selective import _report, _selection_fractions

# Three interior scales around the one under test, so every fit has points.
_OTHER_SCALES = ((0.5, 0.4), (1.0, 0.3), (2.0, 0.2))


def _fit_one(bps, gamma2, replicates):
    """The fit of one feature's bootstrap probabilities, one per scale."""
    return fit_bootstrap_probabilities(np.reshape(bps, (-1, 1)), gamma2, replicates)[0]


def _line(gamma2, psi, weights):
    """beta0, beta1 and the point count of one weighted least-squares line."""
    fit = _weighted_lines(*(np.asarray(a, dtype=float)[None] for a in (gamma2, psi, weights)))
    return fit["beta0"][0], fit["beta1"][0], fit["points"][0]


def _psi(bp, gamma2, b_reps=2000):
    """psi of one bootstrap probability at gamma2, read from the fit's report."""
    g2s, bps = zip(*_OTHER_SCALES, (gamma2, bp))
    return _fit_one(bps, g2s, b_reps)["psi"][-1]


def test_psi_at_half_is_zero():
    assert _psi(0.5, 1.7) == 0.0


def test_psi_inverse_identity():
    assert _psi(norm.sf(2.0), 1.0) == pytest.approx(2.0, abs=1e-10)


def test_psi_gamma_scaling():
    assert _psi(norm.sf(1.0), 4.0) == pytest.approx(2.0, abs=1e-10)


def test_psi_rejects_degenerate_bp():
    # A probability of 0 or 1 has an infinite psi and is left out of the fit.
    for bp, psi in ((0.0, np.inf), (1.0, -np.inf)):
        info = _fit_one((0.4, 0.3, bp), (0.5, 1.0, 2.0), 2000)
        assert "fit_beta0" not in info and info["psi"][-1] == psi
        assert info["scales_dropped"] == 1 and info["dropped_gamma2"] == [2.0]


def _wls(gamma2, bps, b):
    """The fit from psi and inverse delta-method variances computed here."""
    gamma2, bps = np.asarray(gamma2), np.asarray(bps)
    z = norm.isf(bps)
    psi = np.sqrt(gamma2) * z
    weights = b * norm.pdf(z) ** 2 / (gamma2 * bps * (1 - bps))
    design = np.column_stack([np.ones_like(gamma2), gamma2])
    sw = np.sqrt(weights)
    (beta0, beta1), *_ = np.linalg.lstsq(design * sw[:, None], psi * sw, rcond=None)
    return beta0, beta1, float(np.sum(weights * (psi - beta0 - beta1 * gamma2) ** 2))


def test_psi_variance_delta_method():
    # The weights change beta and set the weighted RSS, which scales with them.
    gamma2, bps, b = (0.5, 1.5, 2.0), (0.3, 0.2, 0.45), 2000
    fit = _fit_one(bps, gamma2, b)
    beta0 = fit["fit_beta0"]
    want = _wls(gamma2, bps, b)
    assert (beta0, fit["fit_beta1"], fit["fit_weighted_rss"]) == pytest.approx(want, rel=1e-10)
    assert beta0 != pytest.approx(_line(gamma2, norm.isf(bps) * np.sqrt(gamma2), np.ones(3))[0], rel=1e-3)


@pytest.mark.parametrize("bp, b_reps", [(0.0, 2000), (1.0, 2000), (-0.1, 2000), (1.5, 2000),
                                         (float("nan"), 2000), (0.3, 0)])
def test_psi_variance_rejects_degenerate_inputs(bp, b_reps):
    # A replicate count below 1 is an error; a probability outside (0, 1),
    # or NaN, gets an infinite psi and is left out of the fit.
    g2s, bps = zip(*_OTHER_SCALES, (1.0, bp))
    if b_reps < 1:
        with pytest.raises(ValueError):
            _fit_one(bps, g2s, b_reps)
        return
    fit = _fit_one(bps, g2s, b_reps)
    assert np.isinf(fit["psi"][-1]) and fit["scales_dropped"] == 1
    assert fit["fit_points"] == 3
    want = _wls(g2s[:3], bps[:3], b_reps)[:2]
    assert (fit["fit_beta0"], fit["fit_beta1"]) == pytest.approx(want, rel=1e-10)


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
    beta0, beta1, _ = _line(gamma2, 1.0 + 0.5 * gamma2, np.ones(10))
    assert beta0 == pytest.approx(1.0, abs=1e-10)
    assert beta1 == pytest.approx(0.5, abs=1e-10)
    assert beta0 - beta1 == pytest.approx(0.5, abs=1e-10)


def test_fit_constant_points():
    beta0, beta1, points = _line([0.5, 1.0, 2.0], [3.25] * 3, [1.0] * 3)
    assert beta0 == pytest.approx(3.25, abs=1e-12)
    assert beta1 == pytest.approx(0.0, abs=1e-12)
    assert points == 3


def test_fit_weights_change_solution():
    gamma2, psi = [0.5, 1.0, 2.0], [1.0, 2.0, 1.0]
    unweighted = _line(gamma2, psi, [1.0] * 3)
    weighted = _line(gamma2, psi, [100.0, 1.0, 100.0])
    assert unweighted[0] != weighted[0]


def test_fit_requires_three_points():
    # A column with two interior scales gets no fit, and the caller its
    # fallback; a column with three beside it is fitted through them.
    fits = fit_bootstrap_probabilities(np.array([[0.4, 0.4], [0.3, 0.3], [0.2, 1.0], [0.0, 0.0]]),
                                       [0.5, 1.0, 1.5, 2.0], 1000)
    assert "fit_beta0" not in fits[1] and fits[1]["scales_dropped"] == 2
    assert fits[0]["fit_points"] == 3 and fits[0]["dropped_gamma2"] == [2.0]


def test_fit_noisy_recovery():
    # Half-space at distance 1: BP(gamma^2) = survival(1 / gamma), psi = 1.
    rng = np.random.default_rng(0)
    b = 10_000
    gamma2 = np.exp(np.linspace(np.log(0.5), np.log(2.0), 10))
    bps = [rng.binomial(b, norm.sf(1.0 / np.sqrt(g2))) / b for g2 in gamma2]
    fit = _fit_one(bps, gamma2, b)
    assert fit["scales_dropped"] == 0
    assert fit["fit_beta0"] == pytest.approx(1.0, abs=0.05)
    assert fit["fit_beta1"] == pytest.approx(0.0, abs=0.05)


@st.composite
def _fraction_blocks(draw):
    """(gamma2, fractions, replicates): the grid n / n' of distinct resampling
    sizes n', and a (scales, k) block of bootstrap fractions count /
    replicates, rich in exact 0s and 1s, so that some columns keep fewer
    than 3 interior scales."""
    replicates = draw(st.integers(1, 5000))
    sizes = draw(st.lists(st.integers(2, 2000), min_size=3, max_size=10, unique=True))
    gamma2 = draw(st.integers(4, 2000)) / np.array(sorted(sizes, reverse=True), dtype=float)
    k = draw(st.integers(1, 6))
    count = st.one_of(st.just(0), st.just(replicates), st.integers(0, replicates))
    counts = draw(st.lists(count, min_size=gamma2.size * k, max_size=gamma2.size * k))
    return gamma2, np.array(counts).reshape(gamma2.size, k) / replicates, replicates


@settings(max_examples=300, deadline=None)
@given(_fraction_blocks())
def test_block_fit_matches_the_per_feature_lstsq_oracle(case):
    gamma2, block, replicates = case
    fits = fit_bootstrap_probabilities(block, gamma2, replicates)
    assert len(fits) == block.shape[1]
    for j, fit in enumerate(fits):
        want = oracles.fit_bootstrap_probabilities(block[:, j], gamma2, replicates)
        assert fit == _fit_one(block[:, j], gamma2, replicates)
        assert list(fit) == list(want)
        for key in ("psi", "bootstrap_probabilities", "scales_dropped", "dropped_gamma2", "fit_points"):
            assert fit.get(key) == want.get(key), key
        if "fit_beta0" not in want:
            continue
        # Each number agrees to 1e-12 relative, or to 1e-12 of the size of the
        # terms it is formed from: the intercept beta0 = ybar - beta1 xbar, and
        # the residuals psi - beta0 - beta1 x, can cancel to far below them.
        inside = (block[:, j] > 0) & (block[:, j] < 1)
        x, bp = gamma2[inside], block[inside, j]
        size = np.abs(np.array(want["psi"])[inside]).max() + abs(want["fit_beta1"]) * x.max()
        weights = replicates * norm.pdf(norm.isf(bp)) ** 2 / (x * bp * (1 - bp))
        scales = {"fit_beta0": size, "fit_beta1": size / (x.max() - x.min()), "fit_rmse": size,
                  "fit_max_abs_residual": size, "fit_weighted_rss": weights.sum() * size**2}
        for key, scale in scales.items():
            assert fit[key] == pytest.approx(want[key], rel=1e-12, abs=1e-12 * scale), key


def test_fit_needs_two_distinct_scales():
    # The closed form divides by sum w (x - xbar)^2, which is 0 here.
    with pytest.raises(ValueError, match="distinct"):
        _line([1.5] * 4, [0.2, 0.4, 0.1, 0.3], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="distinct"):
        fit_bootstrap_probabilities(np.full((3, 2), 0.3), [0.5, 0.5, 0.5], 1000)


@pytest.mark.parametrize("bps, gamma2, replicates, message", [
    (np.full((4, 2), 0.3), [0.5, 1.0, 2.0], 100, "need one bootstrap probability per gamma^2 in each column"),
    (np.full(3, 0.3), [0.5, 1.0, 2.0], 100, "need one bootstrap probability per gamma^2 in each column"),
    (np.full((3, 2), 0.3), [[0.5, 1.0, 2.0]], 100, "need one bootstrap probability per gamma^2 in each column"),
    (np.full((3, 2), 0.3), [0.5, 1.0, 2.0], 0, "replicates must be >= 1"),
], ids=["rows", "one-feature", "gamma2-shape", "replicates"])
def test_input_checks(bps, gamma2, replicates, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit_bootstrap_probabilities(bps, gamma2, replicates)


def test_default_scales_endpoints():
    scales = default_scales(1000, RunConfig(seed=0))
    # Resampling sizes n' = 2000 down to 500.
    assert scales[0] == 1000 / 2000 and scales[-1] == 1000 / 500
    assert len(scales) == 10


def test_default_scales_monotone():
    n = 137
    scales = default_scales(n, RunConfig(seed=0))
    assert all(b > a for a, b in zip(scales, scales[1:]))
    # gamma^2 = n / n' with n' >= 2.
    assert max(scales) <= n / 2


def test_default_scales_too_few():
    with pytest.raises(InsufficientScalesError):
        default_scales(4, RunConfig(seed=0, scale_count=3, scale_low=1.0, scale_high=1.05))
    with pytest.raises(ValueError, match="n >= 4"):
        default_scales(3, RunConfig(seed=0))


def test_scale_set_validation():
    # The grid is set only by RunConfig, which rejects fewer than 3 scales
    # and a range that is empty, reversed, NaN or not positive.
    with pytest.raises(ValueError):
        RunConfig(seed=0, scale_count=2)
    for low, high in ((1.0, 1.0), (2.0, 0.5), (np.nan, 2.0), (0.5, np.nan), (-1.0, 1.0)):
        with pytest.raises(ValueError):
            RunConfig(seed=0, scale_low=low, scale_high=high)


def _half_space_fractions(a, gamma2s, b_reps, seed):
    """Bootstrap probabilities of feature 0 winning top-1 of d = 2 under
    Sigma = I at mean (a, 0), one per scale, with their analytic targets:
    y_0 - y_1 ~ N(a, 2 gamma^2), so the target is Phi(a / (gamma sqrt 2))."""
    fractions = _selection_fractions(np.array([a, 0.0]), np.eye(2), 1, gamma2s, b_reps, seed)
    # Every draw selects exactly one of the two features.
    np.testing.assert_allclose(fractions.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    return fractions[:, 0], norm.cdf(a / np.sqrt(2.0 * np.array(gamma2s)))


def _assert_within_3_sd(bp, target, b_reps):
    assert abs(bp - target) <= 3 * np.sqrt(target * (1 - target) / b_reps)


def test_bootstrap_probability_everything():
    # Every draw selects exactly k features, so the fractions sum to k; with
    # k = d every feature is selected in every draw.
    t = np.array([0.3, 0.0, -0.2, 0.1])
    for k in (1, 2, 3):
        fractions = _selection_fractions(t, np.eye(4), k, (0.5, 1.0, 2.0), 500, 0)
        np.testing.assert_allclose(fractions.sum(axis=1), k, rtol=0, atol=1e-12)
    assert (_selection_fractions(t, np.eye(4), 4, (0.5, 1.0, 2.0), 500, 0) == 1.0).all()


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


def _top_k_probabilities(t, sd, k, gamma2, nodes=160):
    """Exact P(i in top k) for every i when y ~ N(t, gamma^2 diag(sd^2)).

    Given y_i = v, each other j exceeds v independently with probability
    survival((v - t_j) / (gamma sd_j)), and i is in the top k when fewer
    than k of them do: a Poisson-binomial tail, summed by a DP over the
    counts 0..k-1 at every Gauss-Hermite node v of y_i's law.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    gamma = np.sqrt(gamma2)
    out = np.empty(len(t))
    for i in range(len(t)):
        v = t[i] + gamma * sd[i] * np.sqrt(2.0) * x
        below = np.zeros((nodes, k))  # P(exactly c of the j seen so far exceed v)
        below[:, 0] = 1.0
        for j in range(len(t)):
            if j != i:
                q = norm.sf((v - t[j]) / (gamma * sd[j]))[:, None]
                below[:, 1:] = below[:, 1:] * (1.0 - q) + below[:, :-1] * q
                below[:, :1] *= 1.0 - q
        out[i] = w @ below.sum(axis=1) / np.sqrt(np.pi)
    return out


@pytest.mark.parametrize("t, sd", [
    # One leader and seven tied competitors, equal variances.
    ([0.3] + [0.0] * 7, [1.0] * 8),
    # Spread-out means with unequal variances.
    (np.linspace(-2.0, 2.0, 8), np.linspace(1.5, 0.5, 8)),
], ids=["tied", "spread"])
def test_bootstrap_probability_matches_exact_top_k(t, sd):
    t, sd = np.asarray(t, dtype=float), np.asarray(sd, dtype=float)
    gamma2s, b = (0.5, 1.0, 2.0), 4000
    for k in (1, 3, len(t) - 1):
        fractions = _selection_fractions(t, np.diag(sd), k, gamma2s, b, 20 + k)
        for gamma2, bps in zip(gamma2s, fractions):
            exact = _top_k_probabilities(t, sd, k, gamma2)
            # The oracle's own check: every draw selects exactly k features.
            assert exact.sum() == pytest.approx(k, abs=1e-8)
            tol = 4.0 * np.sqrt(exact * (1.0 - exact) / b) + 1e-8
            assert (np.abs(bps - exact) <= tol).all(), (k, gamma2, bps, exact)


@st.composite
def _bootstrap_problems(draw):
    # Tied means, flat features (a zero column of the factor, so every draw
    # equals t there) and, with one factor row, equal columns.  With more rows
    # equal columns are left out: BLAS may round their w = z R entries apart,
    # differently for different row counts, and so break such a tie either way.
    d = draw(st.integers(1, 8))
    r = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.choice([-0.5, 0.0, 0.0, 1.0], d) if draw(st.booleans()) else rng.standard_normal(d)
    factor = rng.standard_normal((r, d))
    if r == 1:
        factor = factor[:, rng.integers(0, d, d)]
    factor[:, rng.random(d) < 0.25] = 0.0
    return t, factor, draw(st.integers(1, d)), draw(st.integers(1, 40)), draw(st.integers(0, 999))


@settings(max_examples=150, deadline=None)
@given(_bootstrap_problems())
def test_selection_fractions_do_not_depend_on_the_chunk(case):
    t, factor, k, b, seed = case
    gamma2 = (0.5, 1.0, 2.0)
    runs = []
    with pytest.MonkeyPatch.context() as patch:
        for rows in (1, 7, b):
            patch.setattr(selective, "_BOOT_BLOCK_VALUES", rows * t.size)
            runs.append(_selection_fractions(t, factor, k, gamma2, b, seed))
    # Every replicate selects exactly k features at every scale.
    counts = np.round(runs[0] * b)
    np.testing.assert_allclose(runs[0] * b, counts, rtol=0, atol=1e-9)
    assert (counts.sum(axis=1) == k * b).all()
    assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])


def test_selection_fractions_memory_does_not_grow_with_replicates():
    # One (B, d) float64 draw at B = 2000, d = 5000 takes 80 MB; the stage
    # forms it a block of rows at a time.
    b, d = 2000, 5000
    rng = np.random.default_rng(9)
    factor, t = rng.standard_normal((50, d)), rng.standard_normal(d)
    tracemalloc.start()
    try:
        _selection_fractions(t, factor, 30, (0.5, 1.0, 2.0), b, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < b * d * 8 / 4, peak


def test_from_rows_holds_one_centred_copy_of_the_rows():
    # The centred, scaled rows are formed in one (m, d) array, beside the QR's
    # own copy of it.
    for m, d in ((20_000, 100), (2000, 50), (400, 50)):
        rows = np.random.default_rng(14).standard_normal((m, d))
        tracemalloc.start()
        try:
            MultiStat.from_rows(rows, ddof=1, n=m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * rows.nbytes, (m, d, peak / rows.nbytes)


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
    fractions = _selection_fractions(t, stat.factor, 1, (0.5, 1.0, 2.0), 4000, 4)
    assert (fractions[:, 0] == 0.0).all()
    assert (fractions[:, 3] > 0.2).all()


def _multi_p(beta0, phi_s0):
    """Multi's p-value survival(beta0) / survival(beta0 + phi_S(0)), as the
    report computes it: the survival at beta0 of N(0, 1) truncated to
    [beta0 + phi_S(0), inf)."""
    return poly_p(beta0, 1.0, beta0 + phi_s0, np.inf)


def test_selective_p_unconstrained_selection():
    assert _multi_p(1.5, -np.inf) == pytest.approx(norm.sf(1.5), rel=1e-10)


def test_selective_p_both_boundaries():
    assert _multi_p(0.0, 0.0) == 1.0


def test_selective_p_gaussian_quantile():
    assert _multi_p(1.6449, -np.inf) == pytest.approx(0.05, abs=1e-4)


def test_selective_p_dominates_classical():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.normal(scale=2.0)
        s = -abs(rng.normal(scale=2.0))
        p = _multi_p(a, s)
        assert norm.sf(a) - 1e-12 <= p <= 1.0


def test_selective_p_deep_tail_stable():
    # Far beyond where survival functions underflow, the ratio still resolves.
    p = _multi_p(42.0, -1.0)
    assert 0.0 < p < 1.0
    assert p == pytest.approx(np.exp(norm.logsf(42.0) - norm.logsf(41.0)), rel=1e-6)


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.floats(max_value=0.0, allow_nan=False))
@example(1e155, 0.0)
@example(1e155, -1.0)
@example(1e155, -1e154)
@example(-1e308, -1e308)
def test_selective_p_is_a_valid_selective_p_value(beta0, phi_s0):
    p = _multi_p(beta0, phi_s0)
    assert 0.0 <= p <= 1.0
    # Never below the unselective p-value: the package's own survival(beta0).
    assert p >= np.exp(log_ndtr(-beta0))
    with np.errstate(all="ignore"):
        ref = np.exp(norm.logsf(beta0) - norm.logsf(beta0 + phi_s0))
    # A log survival near -beta0^2 / 2 carries a rounding error near
    # beta0^2 * eps, which is the ratio's relative error; at |beta0| <= 1000
    # that is below 1e-9.
    if ref > 0 and abs(beta0) <= 1000:
        assert p == pytest.approx(ref, rel=1e-9)


def _beta0_report(stat):
    """The Poly report on every feature of ``stat``, with its diagnostics in
    feature order: with k = d there is no constraint, so each feature gets
    the classical, untruncated test."""
    report = _report(stat, RunConfig(seed=0, k=stat.t.size, method="poly-mmd"))
    report.diagnostics.sort(key=lambda diag: diag["feature"])
    return report


def test_flat_hypothesis_distance():
    # The report's beta0 is the signed distance t[i] / sqrt(Sigma[i, i]) to the
    # flat boundary {y_i = 0}, whose curvature vanishes, so it already equals
    # the extrapolated phi_H(-1).
    stat = MultiStat(t=np.array([0.0, 2.0]), factor=np.diag([1.0, 2.0]), n=10)
    assert [diag["beta0"] for diag in _beta0_report(stat).diagnostics] == [0.0, 1.0]
    rng = np.random.default_rng(6)
    t = rng.standard_normal(3)
    sd = rng.random(3) + 0.5
    stat = MultiStat(t=t, factor=np.diag(sd), n=5)
    for i, diag in enumerate(_beta0_report(stat).diagnostics):
        assert diag["beta0"] == t[i] / np.sqrt(sd[i] ** 2)


def test_flat_hypothesis_distance_zero_variance():
    stat = MultiStat(t=np.array([1.0]), factor=np.array([[0.0]]), n=5)
    report = _beta0_report(stat)
    assert report.p_values == [1.0]
    assert "beta0" not in report.diagnostics[0]
    assert report.diagnostics[0]["fallback"] == "degenerate-variance"
    with pytest.raises(DegenerateFeatureError):
        poly_p(1.0, 0.0, -np.inf, np.inf)


def _selection_fit(mean, factor, k, n, replicates, seed):
    """The pipeline's bootstrap for feature 0 on the default grid for n:
    fractions, then the scaling-law fit."""
    gamma2 = default_scales(n, RunConfig(seed=0))
    fractions = _selection_fractions(np.asarray(mean, dtype=float), factor, k, gamma2, replicates, seed)
    return fractions, _fit_one(fractions[:, 0], gamma2, replicates)


def test_region_scaling_halfspace_recovery():
    # With Sigma = I / 2, y_0 - y_1 ~ N(a, gamma^2): BP = Phi(a / gamma), so
    # psi = -a at every scale and the fit recovers beta0 = -a, beta1 = 0.
    a = 0.5
    _, fit = _selection_fit([a, 0.0], np.eye(2) / np.sqrt(2.0), 1, 1000, 10_000, 11)
    assert fit["fit_beta0"] == pytest.approx(-a, abs=0.05)
    assert fit["fit_beta1"] == pytest.approx(0.0, abs=0.05)
    assert fit["scales_dropped"] == 0


def test_region_scaling_degenerate_region_returns_none():
    # k = d: every feature is selected in every draw.
    _, fit = _selection_fit(np.zeros(2), np.eye(2), 2, 100, 200, 12)
    assert "fit_beta0" not in fit
    assert fit["scales_dropped"] == len(default_scales(100, RunConfig(seed=0)))


def test_region_scaling_deterministic():
    first, second = (_selection_fit([0.5, 0.0], np.eye(2), 1, 200, 500, 13) for _ in range(2))
    assert np.array_equal(first[0], second[0])
    assert first[1] == second[1]
