"""End-to-end selective tests.

The multiscale variants (MultiMMD / MultiHSIC) condition each per-feature
test only on that feature entering the top-k set, estimating the signed
distance to the selection boundary by multiscale bootstrap.  The polyhedral
variants (PolyMMD / PolyHSIC) condition on the whole selected set, whose
linear constraints give a closed-form truncated-normal null.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import log_ndtr

from .config import RunConfig
from .core import DegenerateFeatureError, MultiStat, derive_rng
from .hsic import JointSample, hsic_multistat_block, hsic_multistat_incomplete
from .kernels import IMQ, KernelSpec, median_heuristic
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


def poly_truncation_interval(
    t: np.ndarray,
    sigma: np.ndarray,
    selected: SelectionResult,
    i: int,
) -> tuple[float, float]:
    """Truncation interval for coordinate i under the top-k selection event.

    The event "the selected set beat every unselected coordinate" is the
    constraint set {t_b - t_a <= 0 : a selected, b not}.  Decomposing t along
    eta = e_i gives the data-dependent interval of the standard polyhedral
    lemma; with k = d there are no constraints and the interval is the line.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    sigma = np.asarray(sigma, dtype=float)
    d = t.shape[0]
    sel = list(selected.selected)
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
        # Constraint row t_b - t_a <= 0 has A_j y = y_b - y_a.
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
    mats = [np.atleast_2d(np.asarray(m, dtype=float)) for m in column_sources]
    widths = [median_heuristic(np.concatenate([m[:, i] for m in mats])) for i in range(d)]
    if config.shared_bandwidth:
        widths = [float(np.median(widths))] * d
    return [KernelSpec(bandwidth=w) for w in widths]


def _response_spec(Y: np.ndarray, config: RunConfig) -> KernelSpec:
    if config.kernel_family == IMQ:
        return KernelSpec(IMQ, offset=config.imq_offset)
    if config.bandwidth is not None:
        return KernelSpec(bandwidth=config.bandwidth)
    return KernelSpec(bandwidth=median_heuristic(Y))


def mmd_stat(X: np.ndarray, Y: np.ndarray, config: RunConfig,
             feature_names: list[str] | None = None) -> MultiStat:
    """The shared per-feature two-sample statistic both MMD methods test."""
    specs = _feature_specs(config, X, Y)
    rng = derive_rng(config.seed, _STREAM_STAT)
    return mmd_multistat(X, Y, specs, r=config.r, rng=rng, feature_names=feature_names)


def hsic_stat(Z: JointSample, config: RunConfig,
              feature_names: list[str] | None = None) -> MultiStat:
    """The shared per-feature dependence statistic both HSIC methods test."""
    specs = _feature_specs(config, Z.X)
    spec_y = _response_spec(Z.Y, config)
    if config.estimator == "block":
        return hsic_multistat_block(Z, specs, spec_y, config.block_size, feature_names=feature_names)
    rng = derive_rng(config.seed, _STREAM_STAT)
    return hsic_multistat_incomplete(Z, specs, spec_y, r=config.r, rng=rng, feature_names=feature_names)


_METHOD_KEYS = {
    "MultiMMD": "multi-mmd",
    "PolyMMD": "poly-mmd",
    "MultiHSIC": "multi-hsic",
    "PolyHSIC": "poly-hsic",
}


def _snapshot(config: RunConfig, k: int, method: str) -> dict:
    return replace(config, k=k, method=_METHOD_KEYS[method]).snapshot()


def _top_k_fractions(draws: np.ndarray, k: int) -> np.ndarray:
    """Fraction of the rows of ``draws`` in which each column is among the k largest.

    Column i counts in a row exactly when `selection_indicator(i, k)` contains
    that row: a stable descending sort ranks equal coordinates by index, the
    tie rule of `select_top_k`.
    """
    top = np.argsort(-draws, axis=1, kind="stable")[:, :k]
    return np.bincount(top.ravel(), minlength=draws.shape[1]) / draws.shape[0]


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


def _multiscale_report(stat: MultiStat, n: int, k: int, config: RunConfig, method: str) -> SelectiveReport:
    sel = select_top_k(stat.t, k)
    chol, jittered = _cholesky_with_jitter(stat.sigma)
    scales = _scale_set(n, config)
    fractions = _selection_fractions(stat.t, chol, k, scales, config.seed)
    p_values = []
    diagnostics = []
    for i in sel.selected:
        p, diag = _multiscale_feature_test(stat, i, fractions[:, i], scales)
        diag["jitter_applied"] = jittered
        p_values.append(p)
        diagnostics.append(diag)
    return SelectiveReport(
        method=method,
        selection=sel,
        feature_names=stat.feature_names,
        p_values=p_values,
        diagnostics=diagnostics,
        config=_snapshot(config, k, method),
    )


def _poly_report(stat: MultiStat, k: int, config: RunConfig, method: str) -> SelectiveReport:
    sel = select_top_k(stat.t, k)
    p_values = []
    diagnostics = []
    for i in sel.selected:
        diag: dict = {"feature": i, "name": stat.feature_names[i]}
        try:
            vminus, vplus = poly_truncation_interval(stat.t, stat.sigma, sel, i)
            p = poly_p(float(stat.t[i]), float(stat.sigma[i, i]), vminus, vplus)
            diag.update({"vminus": vminus, "vplus": vplus, "beta0": flat_hypothesis_distance(stat, i)})
        except DegenerateFeatureError as exc:
            p = 1.0
            diag.update({"error": str(exc), "fallback": "degenerate-variance"})
        p_values.append(p)
        diagnostics.append(diag)
    return SelectiveReport(
        method=method,
        selection=sel,
        feature_names=stat.feature_names,
        p_values=p_values,
        diagnostics=diagnostics,
        config=_snapshot(config, k, method),
    )


def report_for_method(method: str, stat: MultiStat, n: int, k: int, config: RunConfig) -> SelectiveReport:
    """Run one method's per-feature tests on an already-computed statistic.

    Lets harnesses that compare methods on identical data compute the shared
    statistic once; selection sets then coincide by construction.
    """
    if method == "multi-mmd":
        return _multiscale_report(stat, n, k, config, "MultiMMD")
    if method == "poly-mmd":
        return _poly_report(stat, k, config, "PolyMMD")
    if method == "multi-hsic":
        return _multiscale_report(stat, n, k, config, "MultiHSIC")
    if method == "poly-hsic":
        return _poly_report(stat, k, config, "PolyHSIC")
    raise ValueError(f"unknown method {method!r}")


def multi_mmd(X: np.ndarray, Y: np.ndarray, k: int, config: RunConfig,
              feature_names: list[str] | None = None) -> SelectiveReport:
    """Two-sample feature selection with minimally conditioned selective p-values."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    stat = mmd_stat(X, Y, config, feature_names)
    return _multiscale_report(stat, X.shape[0], k, config, "MultiMMD")


def poly_mmd(X: np.ndarray, Y: np.ndarray, k: int, config: RunConfig,
             feature_names: list[str] | None = None) -> SelectiveReport:
    """Two-sample feature selection with whole-set polyhedral conditioning."""
    stat = mmd_stat(X, Y, config, feature_names)
    return _poly_report(stat, k, config, "PolyMMD")


def multi_hsic(Z: JointSample, k: int, config: RunConfig,
               feature_names: list[str] | None = None) -> SelectiveReport:
    """Dependence-based feature selection with minimally conditioned p-values."""
    stat = hsic_stat(Z, config, feature_names)
    return _multiscale_report(stat, Z.n, k, config, "MultiHSIC")


def poly_hsic(Z: JointSample, k: int, config: RunConfig,
              feature_names: list[str] | None = None) -> SelectiveReport:
    """Dependence-based feature selection with whole-set polyhedral conditioning."""
    stat = hsic_stat(Z, config, feature_names)
    return _poly_report(stat, k, config, "PolyHSIC")
