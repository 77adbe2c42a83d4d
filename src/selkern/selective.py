"""End-to-end selective tests.

The multiscale variants (the multi-* methods) condition each per-feature
test only on that feature entering the top-k set, estimating the signed
distance to the selection boundary by multiscale bootstrap.  The polyhedral
variants (the poly-* methods) condition on the whole selected set, whose
linear constraints give a closed-form truncated-normal null.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import designs
from .config import METHODS, RunConfig
from .core import DataShapeError, DegenerateFeatureError, DegenerateSampleError, Design, MultiStat, derive_rng
from .hsic import JointSample, _block_hsic, _quad_h_matrix
from .kernels import IMQ, KernelSpec, flat_columns, median_bandwidths, median_heuristic
from .mmd import _check_two_sample, _pair_h
from .multiscale import ScalesDroppedWarning, _tail_series, default_scales, fit_bootstrap_probabilities, log_ndtr

_STREAM_STAT = 0
_STREAM_BOOT = 1
# The bootstrap forms its (replicates, d) draw a block of rows of about this
# many values at a time.
_BOOT_BLOCK_VALUES = 1 << 18


@dataclass
class SelectiveReport:
    """The selected features in score order, every feature's score, the
    selected features' post-selection p-values, and diagnostics."""

    method: str
    selected: tuple[int, ...]
    scores: np.ndarray
    feature_names: list[str]
    p_values: list[float]
    diagnostics: list[dict]
    config: dict = field(default_factory=dict)

    def rejected(self, alpha: float) -> list[bool]:
        return [p < alpha for p in self.p_values]


def select_top_k(scores: np.ndarray, k: int) -> tuple[int, ...]:
    """Indices of the k largest scores, in score order; ties break toward
    the lower index."""
    scores = np.atleast_1d(np.asarray(scores, dtype=float))
    d = scores.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}], got {k}")
    order = np.argsort(-scores, kind="stable")
    return tuple(int(i) for i in order[:k])


def poly_truncation_intervals(
    t: np.ndarray,
    factor: np.ndarray,
    selected: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Truncation intervals of every selected coordinate under the top-k selection.

    The event "the selected set beat every unselected coordinate" is the
    constraint set {t_b - t_a <= 0 : a selected, b not}.  Decomposing t along
    eta = e_i gives the data-dependent interval of the standard polyhedral
    lemma; with k = d there are no constraints and the interval is the line.
    Of the covariance Sigma = factorᵀ factor of t, only the (d, k) columns
    of the selected set are formed.  Entry j of both arrays belongs to
    ``selected[j]``; a feature with non-positive variance gets NaN
    at both ends.  The constraints are visited one selected a at a time, on
    (d - k, k) blocks.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    factor = np.asarray(factor, dtype=float)
    sel = np.array(selected, dtype=np.intp)
    columns = factor.T @ factor[:, sel]
    var = columns[sel, np.arange(sel.size)]
    rest = np.ones(t.shape[0], dtype=bool)
    rest[sel] = False
    # A nearly parallel constraint gives an infinite ratio, a valid bound.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Column j holds feature sel[j]'s c = Sigma e_i / var_i and z = t - c t_i.
        c = columns / var
        z = t[:, None] - c * t[sel]
        c_rest, z_rest = c[rest], z[rest]
        vminus, vplus = np.full(sel.size, -np.inf), np.full(sel.size, np.inf)
        for a in sel:
            # Constraint row t_b - t_a <= 0 has A_j y = y_b - y_a.  A NaN among
            # a feature's ratios voids constraint a's bound for it (fmax, fmin).
            ac = c_rest - c[a]
            ratio = -(z_rest - z[a]) / ac
            np.fmax(vminus, np.where(ac < 0, ratio, -np.inf).max(axis=0, initial=-np.inf), out=vminus)
            np.fmin(vplus, np.where(ac > 0, ratio, np.inf).min(axis=0, initial=np.inf), out=vplus)
    degenerate = ~(var > 0)
    vminus[degenerate] = vplus[degenerate] = np.nan
    return vminus, vplus


def poly_p(t, var, vminus, vplus):
    """One-sided truncated-normal p-value: the survival at t of N(0, var)
    truncated to [vminus, vplus], tail-stable.  Scalar arguments give a
    float; arrays, which broadcast, give a float array of their shape.

    With ls(x) = log survival(x / sigma), the value is
    (exp(ls(t)) - exp(ls(v+))) / (exp(ls(v-)) - exp(ls(v+))), evaluated via
    expm1 of log-survival differences so far tails do not cancel; past
    `_FAR_TAIL` sigmas `_log_sf_ratio` forms each difference whole.  Past
    t / sigma ~ 1.34e154 the log survival at t is -inf, as at every end above
    t; there the value is 1 at t = v- and, as t - v- >= ulp(t), below the
    least double otherwise.
    """
    var = np.asarray(var, dtype=float)
    if np.any(var <= 0):
        raise DegenerateFeatureError(f"non-positive variance {var}")
    sigma = np.sqrt(var)
    t = np.asarray(t, dtype=float)
    vminus = np.asarray(vminus, dtype=float)
    vplus = np.asarray(vplus, dtype=float)
    if np.any(vplus <= vminus):
        raise ValueError("truncation interval has zero width")
    if np.any(t < vminus) or np.any(t > vplus):
        raise ValueError("statistic lies outside its truncation interval")
    ls_low = log_ndtr(-vminus / sigma)
    ls_t = log_ndtr(-t / sigma)
    ls_high = log_ndtr(-vplus / sigma)
    with np.errstate(invalid="ignore"):
        num = -np.expm1(_log_sf_ratio(vplus, t, sigma, ls_high, ls_t))
        den = -np.expm1(_log_sf_ratio(vplus, vminus, sigma, ls_high, ls_low))
        ratio = np.where(den > 0, num / np.where(den > 0, den, 1.0), 1.0)
        out = np.exp(_log_sf_ratio(t, vminus, sigma, ls_t, ls_low)) * ratio
    out = np.clip(np.where(ls_t == -np.inf, t == vminus, out), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


# Ends at least this many sigmas out take `_log_sf_ratio`'s far-tail form.
_FAR_TAIL = 20.0


def _log_sf_ratio(u, v, sigma, ls_u, ls_v):
    """log S(u) - log S(v), S the survival of N(0, sigma^2), from the log
    survivals ls_u, ls_v.  Where a = u / sigma and b = v / sigma are both
    finite and at least `_FAR_TAIL`, the leading -(a^2 - b^2) / 2 of the
    normal tail comes as -delta (a + b) / 2 with delta = (u - v) / sigma,
    log(a / b) as log1p(delta / b), and the difference of the two
    `_tail_series` term by term, so that the value keeps the digits that the
    difference of two log survivals of size a^2 / 2 rounds away."""
    a, b = u / sigma, v / sigma
    far = np.isfinite(a) & np.isfinite(b) & (np.minimum(a, b) >= _FAR_TAIL)
    if not far.any():
        return ls_u - ls_v
    with np.errstate(all="ignore"):
        delta = (u - v) / sigma
        za, zb = 1.0 / (a * a), 1.0 / (b * b)
        # z_a^k - z_b^k = (z_a - z_b) h_k, with h_k = z_a^(k-1) + z_a^(k-2) z_b + ... + z_b^(k-1).
        h, zb_k, coef, series = 0.0, 1.0, 1.0, 0.0
        for k in range(1, 11):
            h, zb_k, coef = h * za + zb_k, zb_k * zb, coef * -(2 * k - 1)
            series = series + coef * h
        series = series * (-delta * (a + b) * za * zb)
        tail = -0.5 * delta * (a + b) - np.log1p(delta / b) + np.log1p(series / (1.0 + _tail_series(b)))
        return np.where(far, tail, ls_u - ls_v)


def _fixed_spec(config: RunConfig) -> KernelSpec | None:
    """The kernel `--kernel imq` or `--bandwidth` fixes for every column, else None."""
    if config.kernel_family == IMQ:
        return KernelSpec(IMQ, offset=config.imq_offset)
    if config.bandwidth is not None:
        return KernelSpec(bandwidth=config.bandwidth)
    return None


def _feature_specs(config: RunConfig, *column_sources: np.ndarray) -> tuple[list[KernelSpec], np.ndarray]:
    """One kernel spec per column of the row-stacked ``column_sources``, and the
    mask of the columns whose kernel is constant on them: a flat column (see
    `flat_columns`; its NaN width becomes 1.0) or an infinite width.  Such a
    column's h is exactly 0, which the HSIC formulas reach only up to
    rounding, so the statistics set it to 0 and the report gives p = 1."""
    pooled = np.concatenate(column_sources)
    d = pooled.shape[1]
    if d == 0:
        raise DataShapeError("need at least one feature column")
    if (fixed := _fixed_spec(config)) is not None:
        specs = [fixed] * d
    else:
        widths = median_bandwidths(pooled)
        if config.shared_bandwidth:
            varying = widths[np.isfinite(widths)]
            widths = np.full(d, np.median(varying) if varying.size else np.nan)
        specs = [KernelSpec(bandwidth=1.0 if np.isnan(w) else float(w)) for w in widths]
    return specs, flat_columns(pooled) | np.isinf([s.bandwidth for s in specs])


def _check_finite(*arrays) -> None:
    """Reject NaN and inf: a NaN score would silently drop its feature from the selection."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("data contain NaN or infinite values")


def _stat_design(sample, n: int, config: RunConfig) -> Design:
    """The statistic's design: l = round(r * n) tuples drawn by ``sample``
    from stream (seed, STAT), one design shared by every feature."""
    l = int(round(config.r * n))
    if l < 2:
        raise DataShapeError("design size round(r * n) must be >= 2")
    return sample(n, l, derive_rng(config.seed, _STREAM_STAT))


def mmd_stat(X: np.ndarray, Y: np.ndarray, config: RunConfig,
             feature_names: list[str] | None = None) -> MultiStat:
    """The shared per-feature two-sample statistic both MMD methods test:
    sqrt(l) * MMD^2_inc over a pair design, with Σ the covariance (divisor
    l - 1) of the per-pair h rows."""
    # Before the columns of X and Y are pooled for the bandwidths.
    X, Y = _check_two_sample(X, Y)
    _check_finite(X, Y)
    specs, constant = _feature_specs(config, X, Y)
    # The samplers are looked up on `designs` at call time, so a wrapper
    # installed there (the benchmark's tracer) sees the call.
    i, j = _stat_design(designs.sample_pair_design, X.shape[0], config).tuples.T
    rows = _pair_h(X, Y, i, j, specs)
    rows[:, constant] = 0.0
    return MultiStat.from_rows(rows, ddof=1, n=X.shape[0], feature_names=feature_names)


def hsic_stat(Z: JointSample, config: RunConfig,
              feature_names: list[str] | None = None) -> MultiStat:
    """The shared per-feature dependence statistic both HSIC methods test:
    sqrt(l) * HSIC_inc over a quadruple design (Σ with divisor l - 1), or
    with the block estimator sqrt(m) * HSIC_blo over m = floor(n/B) blocks
    (Σ with divisor m)."""
    _check_finite(Z.X, Z.Y)
    if flat_columns(Z.Y).all():
        raise DegenerateSampleError("the response is constant: no feature can depend on it")
    specs, constant = _feature_specs(config, Z.X)
    spec_y = _fixed_spec(config) or KernelSpec(bandwidth=median_heuristic(Z.Y))
    if config.estimator == "block":
        if Z.n // config.block_size < 2:
            raise DataShapeError("need at least 2 full blocks")
        rows, ddof = _block_hsic(Z, specs, spec_y, config.block_size), 0
    else:
        design = _stat_design(designs.sample_quad_design, Z.n, config)
        rows, ddof = _quad_h_matrix(Z, specs, spec_y, design), 1
    rows[:, constant] = 0.0
    return MultiStat.from_rows(rows, ddof=ddof, n=Z.n, feature_names=feature_names)


def statistic(data, config: RunConfig,
              feature_names: list[str] | None = None) -> MultiStat:
    """The per-feature statistic of ``config.method``'s family.

    ``data`` is an ``(X, Y)`` pair of samples for the MMD methods and a
    `JointSample` for the HSIC methods.  Non-finite values are rejected.
    """
    if config.family == "hsic":
        return hsic_stat(data, config, feature_names)
    return mmd_stat(*data, config, feature_names)


def _top_k_counts(draws: np.ndarray, k: int) -> np.ndarray:
    """Number of rows of ``draws`` in which each column is among the k largest.

    Column i counts in a row exactly when `select_top_k` on that row would
    select i.  A row's k-th largest value v comes from one partition; every
    entry above v counts, and of the entries equal to v the lowest-index ones
    fill the remaining places, the tie rule of `select_top_k`.
    """
    b, d = draws.shape
    if k == d:
        return np.full(d, b)
    v = np.partition(draws, d - k, axis=1)[:, d - k, None]
    top = draws >= v
    # Every row has at least k entries at or above v; only rows with more
    # have ties to break.
    if np.count_nonzero(top) > b * k:
        tied = np.flatnonzero(np.count_nonzero(top, axis=1) > k)
        rows, at = draws[tied], v[tied]
        above, equal = rows > at, rows == at
        places = k - np.count_nonzero(above, axis=1)
        top[tied] = above | (equal & (np.cumsum(equal, axis=1) <= places[:, None]))
    return top.sum(axis=0, dtype=np.intp)


def _selection_fractions(t: np.ndarray, factor: np.ndarray, k: int, gamma2, replicates: int,
                         seed: int) -> np.ndarray:
    """Per-scale top-k fractions of every feature, shape (len(gamma2), d).

    One draw serves every scale (common random numbers): ``replicates``
    rows w = z @ factor, with factorᵀ factor = Sigma and z from stream
    (seed, BOOT, 0), and scale s counts every feature's selection event in
    the rows t + gamma_s w, each distributed as N(t, gamma2[s] Sigma).  So
    each feature's bootstrap probability at each scale has the same law as
    with a draw of its own.  The rows are drawn about `_BOOT_BLOCK_VALUES`
    values at a time, so memory does not grow with ``replicates``; the
    stream fills them in order, so the normals do not depend on the chunk.
    """
    r, d = factor.shape
    gammas = np.sqrt(gamma2)
    counts = np.zeros((gammas.size, d), dtype=np.intp)
    rng = derive_rng(seed, _STREAM_BOOT, 0)
    chunk = min(replicates, max(1, _BOOT_BLOCK_VALUES // d))
    buffer = np.empty((chunk, d))
    for start in range(0, replicates, chunk):
        w = rng.standard_normal((min(chunk, replicates - start), r)) @ factor
        draws = buffer[:w.shape[0]]
        for s, gamma in enumerate(gammas):
            np.multiply(w, gamma, out=draws)
            draws += t
            counts[s] += _top_k_counts(draws, k)
    return counts / replicates


def _multiscale_tests(stat: MultiStat, selected: tuple[int, ...], beta0: np.ndarray, config: RunConfig):
    """Multi's p-value survival(beta0) / survival(beta0 + phi_S(0)) (Terada &
    Shimodaira 2017) is the survival at beta0 of N(0, 1) truncated to
    [beta0 + phi_S(0), inf), with phi_S(0) the intercept of each selected
    feature's scaling-law fit, capped at 0.  Without a fit the selection
    event is taken as unconstraining, phi_S(0) = -inf."""
    gamma2, replicates = default_scales(stat.n, config), config.replicates_per_scale
    fractions = _selection_fractions(stat.t, stat.factor, len(selected), gamma2, replicates, config.seed)
    diagnostics = fit_bootstrap_probabilities(fractions[:, selected], gamma2, replicates)
    for diag in diagnostics:
        if "fit_beta0" not in diag:
            diag.update({"phi_s0": -np.inf, "fallback": "selection-unconstraining"})
        else:
            # The fitted line at gamma^2 = 0 is its intercept.
            diag.update({"phi_s0_raw": diag["fit_beta0"], "phi_s0": min(diag["fit_beta0"], 0.0)})
    lower = beta0 + np.array([diag["phi_s0"] for diag in diagnostics])
    return beta0, np.ones_like(beta0), lower, np.full_like(beta0, np.inf), diagnostics


def _poly_tests(stat: MultiStat, selected: tuple[int, ...], beta0: np.ndarray, config: RunConfig):
    """Poly's p-value is the survival at t_i of N(0, Sigma_ii) truncated to
    the polyhedral interval [V-, V+] of the whole selection (Lee et al. 2016)."""
    vminus, vplus = poly_truncation_intervals(stat.t, stat.factor, selected)
    t = stat.t[list(selected)]
    # A tie at the selection boundary makes a constraint active, so t_i equals
    # an interval end up to rounding; pull a t_i that close back inside.
    inside = np.minimum(np.maximum(t, vminus), vplus)
    clamped = (inside != t) & (np.abs(inside - t) <= 1e-9 * np.maximum(1.0, np.abs(t)))
    diagnostics = [{"clamped": True} if c else {} for c in clamped.tolist()]
    for diag, low, high in zip(diagnostics, vminus.tolist(), vplus.tolist()):
        diag.update({"vminus": low, "vplus": high})
    return np.where(clamped, inside, t), stat.variances[list(selected)], vminus, vplus, diagnostics


def _report(stat: MultiStat, config: RunConfig) -> SelectiveReport:
    """``config.method``'s report on the top ``config.k`` features of ``stat``,
    without a warning.  Each selected feature's diagnostics hold its index,
    name and beta0 = t_i / sqrt(Sigma_ii).  The method's function maps the
    selection to arrays (t, variance, lower end, upper end) of truncated
    normals, whose survivals at t, in one `poly_p` call, are the p-values,
    and to one diagnostics dict per feature.  A feature of zero variance (a
    constant kernel, see `_feature_specs`) gets p = 1 and a flag instead."""
    if config.k is None:
        raise ValueError("config.k must be set to select features")
    selected = select_top_k(stat.t, config.k)
    variances = stat.variances[list(selected)]
    tested = variances > 0
    # NaN where the feature is not tested, so no method's arithmetic on it warns.
    beta0 = np.divide(stat.t[list(selected)], np.sqrt(variances), out=np.full(len(selected), np.nan), where=tested)
    # Looked up at call time, so a wrapper installed on the module sees the call.
    tests = _multiscale_tests if config.method.startswith("multi-") else _poly_tests
    *normals, method_diagnostics = tests(stat, selected, beta0, config)
    diagnostics = []
    for j, i in enumerate(selected):
        diag: dict = {"feature": i, "name": stat.feature_names[i]}
        if tested[j]:
            diag.update({"beta0": float(beta0[j]), **method_diagnostics[j]})
        else:
            diag.update({"error": f"feature {i} has non-positive variance", "fallback": "degenerate-variance"})
        diagnostics.append(diag)
    p_values = np.ones(len(selected))
    p_values[tested] = poly_p(*(a[tested] for a in normals))
    return SelectiveReport(method=METHODS[config.method], selected=selected, scores=stat.t,
                           feature_names=stat.feature_names, p_values=p_values.tolist(),
                           diagnostics=diagnostics, config=config.snapshot())


def _warn_unconstraining(fell_back: int, tested: int, stacklevel: int) -> None:
    """One `ScalesDroppedWarning` when ``fell_back`` of ``tested`` selected
    features took their selection events as unconstraining.  ``stacklevel``
    counts as in `warnings.warn` called from the caller of this function."""
    if fell_back:
        warnings.warn(f"selection bootstrap probability degenerate at nearly all scales for {fell_back} "
                      f"of {tested} selected features; treating their selection events as "
                      "unconstraining", ScalesDroppedWarning, stacklevel=stacklevel + 1)


def _warned_report(stat: MultiStat, config: RunConfig) -> SelectiveReport:
    """`_report`, then one `ScalesDroppedWarning` if any selected
    feature's selection event is taken as unconstraining, at the line that
    called `selective_report` or `select_and_test`."""
    report = _report(stat, config)
    fell_back = sum(diag.get("fallback") == "selection-unconstraining" for diag in report.diagnostics)
    _warn_unconstraining(fell_back, len(report.selected), stacklevel=3)
    return report


def selective_report(stat: MultiStat, config: RunConfig) -> SelectiveReport:
    """Run ``config.method``'s per-feature tests on an already-computed statistic.

    Lets harnesses that compare methods on identical data compute the shared
    statistic once; selection sets then coincide by construction.
    """
    return _warned_report(stat, config)


def select_and_test(data, config: RunConfig,
                    feature_names: list[str] | None = None) -> SelectiveReport:
    """Select the top ``config.k`` features of ``data`` and test them by ``config.method``.

    ``data`` is an ``(X, Y)`` pair of samples for the MMD methods (two-sample
    tests) and a `JointSample` for the HSIC methods (dependence tests).
    """
    return _warned_report(statistic(data, config, feature_names), config)
