"""End-to-end selective tests.

The multiscale variants (the multi-* methods) condition each per-feature
test only on that feature entering the top-k set, estimating the signed
distance to the selection boundary by multiscale bootstrap.  The polyhedral
variants (the poly-* methods) condition on the whole selected set, whose
linear constraints give a closed-form truncated-normal null.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import log_ndtr

from .config import METHODS, RunConfig
from .core import DegenerateFeatureError, MultiStat, derive_rng
from .hsic import JointSample, hsic_multistat_block, hsic_multistat_incomplete
from .kernels import IMQ, KernelSpec, median_bandwidths, median_heuristic
from .mmd import mmd_multistat
from .multiscale import (
    RegionIndicator,
    _cholesky_with_jitter,
    default_scales,
    fit_bootstrap_probabilities,
    flat_hypothesis_distance,
    selective_p_detail,
    warn_selection_unconstraining,
)

_STREAM_STAT = 0
_STREAM_BOOT = 1


@dataclass(frozen=True)
class SelectionResult:
    """The k highest-scoring features, in score order (ties to lowest index)."""

    selected: tuple[int, ...]
    scores: np.ndarray

    @property
    def k(self) -> int:
        return len(self.selected)


@dataclass
class SelectiveReport:
    """Selected features, their post-selection p-values, and diagnostics."""

    method: str
    selection: SelectionResult
    feature_names: list[str]
    p_values: list[float]
    diagnostics: list[dict]
    config: dict = field(default_factory=dict)

    @property
    def selected(self) -> tuple[int, ...]:
        return self.selection.selected

    def rejected(self, alpha: float) -> list[bool]:
        return [p < alpha for p in self.p_values]


def select_top_k(scores: np.ndarray, k: int) -> SelectionResult:
    """Indices of the k largest scores; ties break toward the lower index."""
    scores = np.atleast_1d(np.asarray(scores, dtype=float))
    d = scores.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}], got {k}")
    order = np.argsort(-scores, kind="stable")
    return SelectionResult(selected=tuple(int(i) for i in order[:k]), scores=scores)


def selection_indicator(i: int, k: int) -> RegionIndicator:
    """Region of statistic vectors whose coordinate i is among the k largest.

    Uses the same tie rule as `select_top_k`: coordinate i is beaten only by
    strictly larger coordinates and by equal coordinates of lower index.
    """

    def contains(points: np.ndarray) -> np.ndarray:
        col = points[:, i][:, None]
        beaten = (points > col).sum(axis=1)
        if i > 0:
            beaten += (points[:, :i] == col).sum(axis=1)
        return beaten < k

    return RegionIndicator(predicate=contains, label=f"feature {i} in top-{k}")


def _truncnorm_sf(t, var: float, vminus, vplus) -> np.ndarray:
    """Survival at t of N(0, var) truncated to [vminus, vplus], tail-stable.

    With ls(x) = log survival(x / sigma), the value is
    (exp(ls(t)) - exp(ls(v+))) / (exp(ls(v-)) - exp(ls(v+))), evaluated via
    expm1 of log-survival differences so far tails do not cancel.
    """
    if var <= 0:
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
        num = -np.expm1(ls_high - ls_t)
        den = -np.expm1(ls_high - ls_low)
        ratio = np.where(den > 0, num / np.where(den > 0, den, 1.0), 1.0)
        out = np.exp(ls_t - ls_low) * ratio
    return np.clip(out, 0.0, 1.0)


def poly_truncation_intervals(
    t: np.ndarray,
    sigma: np.ndarray,
    selected: SelectionResult,
) -> tuple[np.ndarray, np.ndarray]:
    """Truncation intervals of every selected coordinate under the top-k selection.

    The event "the selected set beat every unselected coordinate" is the
    constraint set {t_b - t_a <= 0 : a selected, b not}.  Decomposing t along
    eta = e_i gives the data-dependent interval of the standard polyhedral
    lemma; with k = d there are no constraints and the interval is the line.
    Entry j of both arrays belongs to ``selected.selected[j]``; a feature
    with non-positive variance gets NaN at both ends.  The constraints are
    visited one selected a at a time, on (d - k, k) blocks.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    sigma = np.asarray(sigma, dtype=float)
    sel = np.array(selected.selected, dtype=np.intp)
    var = sigma[sel, sel]
    rest = np.ones(t.shape[0], dtype=bool)
    rest[sel] = False
    # A nearly parallel constraint gives an infinite ratio, a valid bound.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Column j holds feature sel[j]'s c = Sigma e_i / var_i and z = t - c t_i.
        c = sigma[:, sel] / var
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


def _feature_interval(i: int, vminus: float, vplus: float) -> tuple[float, float]:
    """Feature i's entry of `poly_truncation_intervals` as floats, or the error its NaN stands for."""
    if np.isnan(vminus):
        raise DegenerateFeatureError(f"feature {i} has non-positive variance")
    return float(vminus), float(vplus)


def poly_truncation_interval(
    t: np.ndarray,
    sigma: np.ndarray,
    selected: SelectionResult,
    i: int,
) -> tuple[float, float]:
    """Truncation interval for selected coordinate i: its entry of
    `poly_truncation_intervals`.  Raises `DegenerateFeatureError` if
    feature i has non-positive variance."""
    if i not in selected.selected:
        raise ValueError(f"feature {i} is not in the selected set")
    j = selected.selected.index(i)
    vminus, vplus = poly_truncation_intervals(t, sigma, selected)
    return _feature_interval(i, vminus[j], vplus[j])


def poly_p(t_i: float, var_i: float, vminus: float, vplus: float) -> float:
    """One-sided truncated-normal p-value for the coordinate statistic."""
    return float(_truncnorm_sf(t_i, var_i, vminus, vplus))


def _scale_set(n: int, config: RunConfig):
    return default_scales(
        n,
        count=config.scale_count,
        low=config.scale_low,
        high=config.scale_high,
        replicates_per_scale=config.replicates_per_scale,
    )


def _feature_specs(config: RunConfig, *column_sources: np.ndarray) -> list[KernelSpec]:
    d = np.atleast_2d(column_sources[0]).shape[1]
    if config.kernel_family == IMQ:
        return [KernelSpec(IMQ, offset=config.imq_offset)] * d
    if config.bandwidth is not None:
        return [KernelSpec(bandwidth=config.bandwidth)] * d
    widths = median_bandwidths(np.concatenate([np.atleast_2d(m) for m in column_sources]))
    # A flat column (width NaN) has no positive squared difference, so its
    # h-values are 0 under any bandwidth: it gets 1.0 and falls back to p = 1.
    # A column whose median square overflows (width inf) keeps the infinite
    # width, whose kernel is constant, so it falls back to p = 1 as well.
    if config.shared_bandwidth:
        varying = widths[np.isfinite(widths)]
        widths = np.full(d, np.median(varying) if varying.size else np.nan)
    return [KernelSpec(bandwidth=1.0 if np.isnan(w) else float(w)) for w in widths]


def _response_spec(Y: np.ndarray, config: RunConfig) -> KernelSpec:
    if config.kernel_family == IMQ:
        return KernelSpec(IMQ, offset=config.imq_offset)
    if config.bandwidth is not None:
        return KernelSpec(bandwidth=config.bandwidth)
    return KernelSpec(bandwidth=median_heuristic(Y))


def _check_finite(*arrays) -> None:
    """Reject NaN and inf: a NaN score would silently drop its feature from the selection."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("data contain NaN or infinite values")


def mmd_stat(X: np.ndarray, Y: np.ndarray, config: RunConfig,
             feature_names: list[str] | None = None) -> MultiStat:
    """The shared per-feature two-sample statistic both MMD methods test."""
    _check_finite(X, Y)
    specs = _feature_specs(config, X, Y)
    rng = derive_rng(config.seed, _STREAM_STAT)
    return mmd_multistat(X, Y, specs, r=config.r, rng=rng, feature_names=feature_names)


def hsic_stat(Z: JointSample, config: RunConfig,
              feature_names: list[str] | None = None) -> MultiStat:
    """The shared per-feature dependence statistic both HSIC methods test."""
    _check_finite(Z.X, Z.Y)
    specs = _feature_specs(config, Z.X)
    spec_y = _response_spec(Z.Y, config)
    if config.estimator == "block":
        return hsic_multistat_block(Z, specs, spec_y, config.block_size, feature_names=feature_names)
    rng = derive_rng(config.seed, _STREAM_STAT)
    return hsic_multistat_incomplete(Z, specs, spec_y, r=config.r, rng=rng, feature_names=feature_names)


def statistic(data, config: RunConfig,
              feature_names: list[str] | None = None) -> tuple[MultiStat, int]:
    """The per-feature statistic of ``config.method``'s family and the sample size.

    ``data`` is an ``(X, Y)`` pair of samples for the MMD methods and a
    `JointSample` for the HSIC methods.  Non-finite values are rejected.
    """
    if config.family == "hsic":
        return hsic_stat(data, config, feature_names), data.n
    X, Y = data
    return mmd_stat(X, Y, config, feature_names), np.atleast_2d(X).shape[0]


def _top_k_fractions(draws: np.ndarray, k: int) -> np.ndarray:
    """Fraction of the rows of ``draws`` in which each column is among the k largest.

    Column i counts in a row exactly when `selection_indicator(i, k)` contains
    that row.  A row's k-th largest value v comes from one partition; every
    entry above v counts, and of the entries equal to v the lowest-index ones
    fill the remaining places, the tie rule of `select_top_k`.
    """
    b, d = draws.shape
    if k == d:
        return np.ones(d)
    v = np.partition(draws, d - k, axis=1)[:, d - k, None]
    top = draws >= v
    # Only rows with more than k entries at or above v have ties to break.
    tied = np.flatnonzero(np.count_nonzero(top, axis=1) > k)
    if tied.size:
        rows, at = draws[tied], v[tied]
        above, equal = rows > at, rows == at
        places = k - np.count_nonzero(above, axis=1)
        top[tied] = above | (equal & (np.cumsum(equal, axis=1) <= places[:, None]))
    return np.count_nonzero(top, axis=0) / b


def _selection_fractions(t: np.ndarray, chol: np.ndarray, k: int, scales, seed: int) -> np.ndarray:
    """Per-scale top-k fractions of every feature, shape (scales, d).

    Scale s draws one N(t, gamma^2 Sigma) sample from stream (seed, BOOT, s)
    and every feature's selection event is counted on it, so each feature's
    bootstrap probability has the same law as with a draw of its own.
    """
    b_reps = scales.replicates_per_scale
    out = np.empty((len(scales.scales), t.shape[0]))
    for s, (_, gamma2) in enumerate(scales.scales):
        draws = derive_rng(seed, _STREAM_BOOT, s).standard_normal((b_reps, t.shape[0])) @ chol.T
        draws *= np.sqrt(gamma2)
        draws += t
        out[s] = _top_k_fractions(draws, k)
    return out


def _multiscale_feature_test(stat: MultiStat, i: int, bps: np.ndarray, scales):
    diag: dict = {"feature": i, "name": stat.feature_names[i]}
    try:
        beta0 = flat_hypothesis_distance(stat, i)
    except DegenerateFeatureError as exc:
        diag.update({"error": str(exc), "fallback": "degenerate-variance"})
        return 1.0, diag
    diag["beta0"] = beta0
    fit, info = fit_bootstrap_probabilities(bps, scales)
    diag.update(info)
    if fit is None:
        warn_selection_unconstraining()
        diag.update({"phi_s0": -np.inf, "fallback": "selection-unconstraining"})
        phi_s = -np.inf
    else:
        phi_s_raw = fit.predict(0.0)
        phi_s = min(phi_s_raw, 0.0)
        diag.update(
            {
                "phi_s0_raw": phi_s_raw,
                "phi_s0": phi_s,
                "fit_beta0": fit.beta0,
                "fit_beta1": fit.beta1,
                "fit_points": fit.points_used,
                **{f"fit_{key}": value for key, value in fit.diagnostics.items()},
            }
        )
    p, degenerate = selective_p_detail(beta0, phi_s)
    if degenerate:
        diag["fallback"] = "degenerate-selection"
    return p, diag


def _report(stat: MultiStat, sel: SelectionResult, tests: list[tuple[float, dict]],
            config: RunConfig) -> SelectiveReport:
    return SelectiveReport(
        method=METHODS[config.method],
        selection=sel,
        feature_names=stat.feature_names,
        p_values=[p for p, _ in tests],
        diagnostics=[diag for _, diag in tests],
        config=config.snapshot(),
    )


def _multiscale_report(stat: MultiStat, n: int, config: RunConfig) -> SelectiveReport:
    sel = select_top_k(stat.t, config.k)
    chol, jittered = _cholesky_with_jitter(stat.sigma)
    scales = _scale_set(n, config)
    fractions = _selection_fractions(stat.t, chol, sel.k, scales, config.seed)
    tests = [_multiscale_feature_test(stat, i, fractions[:, i], scales) for i in sel.selected]
    for _, diag in tests:
        diag["jitter_applied"] = jittered
    return _report(stat, sel, tests, config)


def _poly_feature_test(stat: MultiStat, i: int, vminus: float, vplus: float) -> tuple[float, dict]:
    diag: dict = {"feature": i, "name": stat.feature_names[i]}
    try:
        vminus, vplus = _feature_interval(i, vminus, vplus)
    except DegenerateFeatureError as exc:
        diag.update({"error": str(exc), "fallback": "degenerate-variance"})
        return 1.0, diag
    t_i = float(stat.t[i])
    # A tie at the selection boundary makes a constraint active, so t_i equals
    # an interval end up to rounding; pull a t_i that close back inside.
    inside = min(max(t_i, vminus), vplus)
    if inside != t_i and abs(inside - t_i) <= 1e-9 * max(1.0, abs(t_i)):
        t_i = inside
        diag["clamped"] = True
    p = poly_p(t_i, float(stat.sigma[i, i]), vminus, vplus)
    diag.update({"vminus": vminus, "vplus": vplus, "beta0": flat_hypothesis_distance(stat, i)})
    return p, diag


def _poly_report(stat: MultiStat, config: RunConfig) -> SelectiveReport:
    sel = select_top_k(stat.t, config.k)
    intervals = zip(sel.selected, *poly_truncation_intervals(stat.t, stat.sigma, sel))
    return _report(stat, sel, [_poly_feature_test(stat, *interval) for interval in intervals], config)


def selective_report(stat: MultiStat, n: int, config: RunConfig) -> SelectiveReport:
    """Run ``config.method``'s per-feature tests on an already-computed statistic.

    Lets harnesses that compare methods on identical data compute the shared
    statistic once; selection sets then coincide by construction.
    """
    if config.k is None:
        raise ValueError("config.k must be set to select features")
    if config.method.startswith("multi-"):
        return _multiscale_report(stat, n, config)
    return _poly_report(stat, config)


def select_and_test(data, config: RunConfig,
                    feature_names: list[str] | None = None) -> SelectiveReport:
    """Select the top ``config.k`` features of ``data`` and test them by ``config.method``.

    ``data`` is an ``(X, Y)`` pair of samples for the MMD methods (two-sample
    tests) and a `JointSample` for the HSIC methods (dependence tests).
    """
    stat, n = statistic(data, config, feature_names)
    return selective_report(stat, n, config)
