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
from .core import DataShapeError, DegenerateFeatureError, Design, MultiStat, derive_rng
from .hsic import JointSample, _block_hsic, _quad_h_matrix
from .kernels import IMQ, KernelSpec, median_bandwidths, median_heuristic
from .mmd import _check_two_sample, _pair_h
from .multiscale import (
    ScalesDroppedWarning,
    default_scales,
    fit_bootstrap_probabilities,
    flat_hypothesis_distance,
    log_ndtr,
    selective_p_detail,
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


def poly_truncation_intervals(
    t: np.ndarray,
    factor: np.ndarray,
    selected: SelectionResult,
) -> tuple[np.ndarray, np.ndarray]:
    """Truncation intervals of every selected coordinate under the top-k selection.

    The event "the selected set beat every unselected coordinate" is the
    constraint set {t_b - t_a <= 0 : a selected, b not}.  Decomposing t along
    eta = e_i gives the data-dependent interval of the standard polyhedral
    lemma; with k = d there are no constraints and the interval is the line.
    Of the covariance Sigma = factorᵀ factor of t, only the (d, k) columns
    of the selected set are formed.  Entry j of both arrays belongs to
    ``selected.selected[j]``; a feature with non-positive variance gets NaN
    at both ends.  The constraints are visited one selected a at a time, on
    (d - k, k) blocks.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    factor = np.asarray(factor, dtype=float)
    sel = np.array(selected.selected, dtype=np.intp)
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


def poly_p(t, var: float, vminus, vplus):
    """One-sided truncated-normal p-value: the survival at t of N(0, var)
    truncated to [vminus, vplus], tail-stable.  Scalar arguments give a
    float; arrays, which broadcast, give a float array of their shape.

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
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _fixed_spec(config: RunConfig) -> KernelSpec | None:
    """The kernel `--kernel imq` or `--bandwidth` fixes for every column, else None."""
    if config.kernel_family == IMQ:
        return KernelSpec(IMQ, offset=config.imq_offset)
    if config.bandwidth is not None:
        return KernelSpec(bandwidth=config.bandwidth)
    return None


def _feature_specs(config: RunConfig, *column_sources: np.ndarray) -> list[KernelSpec]:
    d = np.atleast_2d(column_sources[0]).shape[1]
    if d == 0:
        raise DataShapeError("need at least one feature column")
    if (fixed := _fixed_spec(config)) is not None:
        return [fixed] * d
    widths = median_bandwidths(np.concatenate([np.atleast_2d(m) for m in column_sources]))
    # A flat column (width NaN) has no positive squared difference, so its
    # h-values are 0 under any bandwidth: it gets 1.0 and falls back to p = 1.
    # A column whose median square overflows (width inf) keeps the infinite
    # width, whose kernel is constant, so it falls back to p = 1 as well.
    if config.shared_bandwidth:
        varying = widths[np.isfinite(widths)]
        widths = np.full(d, np.median(varying) if varying.size else np.nan)
    return [KernelSpec(bandwidth=1.0 if np.isnan(w) else float(w)) for w in widths]


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
    specs = _feature_specs(config, X, Y)
    # The samplers are looked up on `designs` at call time, so a wrapper
    # installed there (the benchmark's tracer) sees the call.
    i, j = _stat_design(designs.sample_pair_design, X.shape[0], config).tuples.T
    return MultiStat.from_rows(_pair_h(X, Y, i, j, specs), ddof=1, n=X.shape[0],
                               feature_names=feature_names)


def hsic_stat(Z: JointSample, config: RunConfig,
              feature_names: list[str] | None = None) -> MultiStat:
    """The shared per-feature dependence statistic both HSIC methods test:
    sqrt(l) * HSIC_inc over a quadruple design (Σ with divisor l - 1), or
    with the block estimator sqrt(m) * HSIC_blo over m = floor(n/B) blocks
    (Σ with divisor m)."""
    _check_finite(Z.X, Z.Y)
    specs = _feature_specs(config, Z.X)
    spec_y = _fixed_spec(config) or KernelSpec(bandwidth=median_heuristic(Z.Y))
    if config.estimator == "block":
        if Z.n // config.block_size < 2:
            raise DataShapeError("need at least 2 full blocks")
        rows, ddof = _block_hsic(Z, specs, spec_y, config.block_size), 0
    else:
        design = _stat_design(designs.sample_quad_design, Z.n, config)
        rows, ddof = _quad_h_matrix(Z, specs, spec_y, design), 1
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


def _top_k_fractions(draws: np.ndarray, k: int) -> np.ndarray:
    """Fraction of the rows of ``draws`` in which each column is among the k largest.

    Column i counts in a row exactly when `select_top_k` on that row would
    select i.  A row's k-th largest value v comes from one partition; every
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


def _selection_fractions(t: np.ndarray, factor: np.ndarray, k: int, gamma2, replicates: int,
                         seed: int) -> np.ndarray:
    """Per-scale top-k fractions of every feature, shape (len(gamma2), d).

    Scale s draws ``replicates`` rows of one N(t, gamma2[s] Sigma) sample,
    t + gamma * z @ factor with factorᵀ factor = Sigma and z from stream
    (seed, BOOT, s), and every feature's selection event is counted on it,
    so each feature's bootstrap probability has the same law as with a draw
    of its own.
    """
    out = np.empty((len(gamma2), t.shape[0]))
    for s, g2 in enumerate(gamma2):
        draws = derive_rng(seed, _STREAM_BOOT, s).standard_normal((replicates, factor.shape[0])) @ factor
        draws *= np.sqrt(g2)
        draws += t
        out[s] = _top_k_fractions(draws, k)
    return out


def _multiscale_feature_test(stat: MultiStat, i: int, bps: np.ndarray, gamma2: tuple[float, ...],
                             replicates: int):
    diag: dict = {"feature": i, "name": stat.feature_names[i]}
    try:
        beta0 = flat_hypothesis_distance(stat, i)
    except DegenerateFeatureError as exc:
        diag.update({"error": str(exc), "fallback": "degenerate-variance"})
        return 1.0, diag
    diag["beta0"] = beta0
    fit, info = fit_bootstrap_probabilities(bps, gamma2, replicates)
    diag.update(info)
    if fit is None:
        warnings.warn("selection bootstrap probability degenerate at nearly all scales; "
                      "treating the selection event as unconstraining", ScalesDroppedWarning, stacklevel=2)
        diag.update({"phi_s0": -np.inf, "fallback": "selection-unconstraining"})
        phi_s = -np.inf
    else:
        # The fitted line at gamma^2 = 0 is its intercept.
        fit_beta0, fit_beta1, fit_diagnostics = fit
        phi_s = min(fit_beta0, 0.0)
        diag.update(
            {
                "phi_s0_raw": fit_beta0,
                "phi_s0": phi_s,
                "fit_beta0": fit_beta0,
                "fit_beta1": fit_beta1,
                **{f"fit_{key}": value for key, value in fit_diagnostics.items()},
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


def _multiscale_report(stat: MultiStat, config: RunConfig) -> SelectiveReport:
    sel = select_top_k(stat.t, config.k)
    gamma2, replicates = default_scales(stat.n, config), config.replicates_per_scale
    fractions = _selection_fractions(stat.t, stat.factor, sel.k, gamma2, replicates, config.seed)
    tests = [_multiscale_feature_test(stat, i, fractions[:, i], gamma2, replicates) for i in sel.selected]
    return _report(stat, sel, tests, config)


def _poly_feature_test(stat: MultiStat, i: int, vminus: float, vplus: float) -> tuple[float, dict]:
    diag: dict = {"feature": i, "name": stat.feature_names[i]}
    if np.isnan(vminus):
        diag.update({"error": f"feature {i} has non-positive variance", "fallback": "degenerate-variance"})
        return 1.0, diag
    vminus, vplus = float(vminus), float(vplus)
    t_i = float(stat.t[i])
    # A tie at the selection boundary makes a constraint active, so t_i equals
    # an interval end up to rounding; pull a t_i that close back inside.
    inside = min(max(t_i, vminus), vplus)
    if inside != t_i and abs(inside - t_i) <= 1e-9 * max(1.0, abs(t_i)):
        t_i = inside
        diag["clamped"] = True
    p = poly_p(t_i, float(stat.variances[i]), vminus, vplus)
    diag.update({"vminus": vminus, "vplus": vplus, "beta0": flat_hypothesis_distance(stat, i)})
    return p, diag


def _poly_report(stat: MultiStat, config: RunConfig) -> SelectiveReport:
    sel = select_top_k(stat.t, config.k)
    intervals = zip(sel.selected, *poly_truncation_intervals(stat.t, stat.factor, sel))
    return _report(stat, sel, [_poly_feature_test(stat, *interval) for interval in intervals], config)


def selective_report(stat: MultiStat, config: RunConfig) -> SelectiveReport:
    """Run ``config.method``'s per-feature tests on an already-computed statistic.

    Lets harnesses that compare methods on identical data compute the shared
    statistic once; selection sets then coincide by construction.
    """
    if config.k is None:
        raise ValueError("config.k must be set to select features")
    if config.method.startswith("multi-"):
        return _multiscale_report(stat, config)
    return _poly_report(stat, config)


def select_and_test(data, config: RunConfig,
                    feature_names: list[str] | None = None) -> SelectiveReport:
    """Select the top ``config.k`` features of ``data`` and test them by ``config.method``.

    ``data`` is an ``(X, Y)`` pair of samples for the MMD methods (two-sample
    tests) and a `JointSample` for the HSIC methods (dependence tests).
    """
    return selective_report(statistic(data, config, feature_names), config)
