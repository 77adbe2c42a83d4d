"""Parametric multiscale bootstrap.

Replicates of a Gaussian statistic are drawn at several variance scales
gamma^2; the fraction landing in a region is turned into a normalized
z-value psi = gamma * inverse-survival(BP), which follows the scaling law
psi ~ beta0 + gamma^2 * beta1 (signed distance plus curvature).  Fitting
the law over the scale grid and extrapolating to gamma^2 = 0 or -1 yields
the geometric quantities that drive selective p-values.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import log_ndtr, ndtri

from .core import (
    DataShapeError,
    DegenerateFeatureError,
    InsufficientScalesError,
    MultiStat,
)


class ScalesDroppedWarning(UserWarning):
    """Too few interior bootstrap probabilities to constrain the fit."""


@dataclass(frozen=True)
class RegionIndicator:
    """A region of R^d given by a membership predicate.

    ``predicate`` must accept an (m, d) batch of points and return a boolean
    array of length m; it must be deterministic and defined everywhere.
    """

    predicate: Callable[[np.ndarray], np.ndarray]
    label: str = "region"

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self.predicate(points), dtype=bool)
        if out.shape != (points.shape[0],):
            raise DataShapeError("region predicate must return one bool per point")
        return out


def half_space(coord: int = 0, threshold: float = 0.0, label: str | None = None) -> RegionIndicator:
    """The half-space {y : y[coord] <= threshold}; handy as an analytic test region."""
    return RegionIndicator(
        predicate=lambda pts: pts[:, coord] <= threshold,
        label=label or f"y[{coord}] <= {threshold}",
    )


def everything(label: str = "everything") -> RegionIndicator:
    return RegionIndicator(predicate=lambda pts: np.ones(len(pts), dtype=bool), label=label)


@dataclass(frozen=True)
class ScaleSet:
    """Resampling sizes n' with their variance scales gamma^2 = n / n'."""

    scales: tuple[tuple[int, float], ...]
    replicates_per_scale: int = 2000

    def __post_init__(self) -> None:
        if len(self.scales) < 3:
            raise InsufficientScalesError("need at least 3 scales")
        gammas = [g for _, g in self.scales]
        if any(g <= 0 for g in gammas):
            raise ValueError("gamma^2 must be positive")
        if any(b <= a for a, b in zip(gammas, gammas[1:])):
            raise ValueError("scales must be strictly increasing in gamma^2")
        if self.replicates_per_scale < 1:
            raise ValueError("replicates_per_scale must be >= 1")


def default_scales(
    n: int,
    count: int = 10,
    low: float = 0.5,
    high: float = 2.0,
    replicates_per_scale: int = 2000,
) -> ScaleSet:
    """``count`` resampling sizes log-spaced in [low * n, high * n].

    Rounded to integers >= 2 and deduplicated; gamma^2 = n / n' so the grid
    runs from n/(high*n) up to n/(low*n).
    """
    if n < 4:
        raise DataShapeError("need n >= 4 to build a scale grid")
    raw = np.exp(np.linspace(np.log(low * n), np.log(high * n), count))
    nprimes = sorted({max(2, int(round(v))) for v in raw}, reverse=True)
    scales = tuple((np_, n / np_) for np_ in nprimes)
    if len(scales) < 3:
        raise InsufficientScalesError(f"n = {n} yields fewer than 3 distinct scales")
    return ScaleSet(scales=scales, replicates_per_scale=replicates_per_scale)


def _cholesky_with_jitter(cov: np.ndarray) -> tuple[np.ndarray, bool]:
    """Lower Cholesky factor, retrying once with a small diagonal jitter."""
    cov = np.asarray(cov, dtype=float)
    if not np.isfinite(cov).all():
        raise ValueError("covariance contains non-finite entries")
    try:
        return np.linalg.cholesky(cov), False
    except np.linalg.LinAlgError:
        jitter = 1e-10 * float(np.mean(np.diag(cov))) + 1e-300
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0])), True
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance factorization failed after jitter") from exc


def _sample_region_fraction(
    mean: np.ndarray,
    chol: np.ndarray,
    gamma2: float,
    region: RegionIndicator,
    b_reps: int,
    rng: np.random.Generator,
) -> float:
    z = rng.standard_normal((b_reps, mean.shape[0]))
    draws = mean + np.sqrt(gamma2) * (z @ chol.T)
    return float(region.contains(draws).mean())


def bootstrap_probability(
    mean: np.ndarray,
    cov: np.ndarray,
    gamma2: float,
    region: RegionIndicator,
    b_reps: int,
    rng: np.random.Generator,
) -> float:
    """Fraction of N(mean, gamma2 * cov) replicates that land in the region."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    if not np.isfinite(mean).all():
        raise ValueError("mean contains non-finite entries")
    if gamma2 <= 0:
        raise ValueError("gamma2 must be positive")
    if b_reps < 1:
        raise ValueError("b_reps must be >= 1")
    chol, _ = _cholesky_with_jitter(cov)
    return _sample_region_fraction(mean, chol, gamma2, region, b_reps, rng)


def psi_transform(bp: float, gamma2: float) -> float:
    """Normalized bootstrap z-value gamma * inverse-survival(BP)."""
    if not 0.0 < bp < 1.0:
        raise ValueError("bootstrap probability must lie strictly inside (0, 1)")
    return float(np.sqrt(gamma2) * -ndtri(bp))


def psi_variance(bp: float, gamma2: float, b_reps: int) -> float:
    """Delta-method variance of psi given the binomial noise of BP."""
    z = -ndtri(bp)
    density = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    return float(gamma2 * bp * (1.0 - bp) / (b_reps * density**2))


@dataclass
class ScalingFit:
    """Fitted line psi ~ beta0 + gamma^2 * beta1 over the usable scales."""

    beta0: float
    beta1: float
    points_used: int
    diagnostics: dict = field(default_factory=dict)

    def predict(self, gamma2: float) -> float:
        return self.beta0 + gamma2 * self.beta1


def fit_scaling_law(
    points: Sequence[tuple[float, float]],
    weights: Sequence[float] | None = None,
) -> ScalingFit:
    """Weighted least-squares line through (gamma^2, psi) points.

    Unit weights by default; callers tracking bootstrap noise should pass
    1 / psi_variance per point so the extrapolation is stabilized by the
    better-resolved scales.
    """
    points = list(points)
    if len(points) < 3:
        raise InsufficientScalesError(f"need >= 3 usable points, got {len(points)}")
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("scaling-law points must be finite")
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != x.shape or (w <= 0).any():
        raise ValueError("weights must be positive, one per point")
    sw = np.sqrt(w)
    design = np.column_stack([np.ones_like(x), x]) * sw[:, None]
    coef, *_ = np.linalg.lstsq(design, y * sw, rcond=None)
    beta0, beta1 = float(coef[0]), float(coef[1])
    resid = y - (beta0 + beta1 * x)
    wrss = float(np.sum(w * resid**2))
    diagnostics = {
        "weighted_rss": wrss,
        "rmse": float(np.sqrt(np.mean(resid**2))),
        "max_abs_residual": float(np.max(np.abs(resid))),
    }
    return ScalingFit(beta0=beta0, beta1=beta1, points_used=len(points), diagnostics=diagnostics)


def fit_region_scaling(
    mean: np.ndarray,
    cov: np.ndarray,
    region: RegionIndicator,
    scales: ScaleSet,
    rng_for_scale: Callable[[int], np.random.Generator],
    chol: np.ndarray | None = None,
) -> tuple[ScalingFit | None, dict]:
    """Run the bootstrap over all scales for one region and fit the line.

    The fit and the returned report are those of `fit_bootstrap_probabilities`,
    plus whether the covariance needed a jitter to factorize.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    jittered = False
    if chol is None:
        chol, jittered = _cholesky_with_jitter(cov)
    b_reps = scales.replicates_per_scale
    bps = [
        _sample_region_fraction(mean, chol, gamma2, region, b_reps, rng_for_scale(idx))
        for idx, (_, gamma2) in enumerate(scales.scales)
    ]
    fit, info = fit_bootstrap_probabilities(bps, scales)
    info["jitter_applied"] = jittered
    return fit, info


def fit_bootstrap_probabilities(bps: Sequence[float], scales: ScaleSet) -> tuple[ScalingFit | None, dict]:
    """Fit the scaling law to one bootstrap probability per scale.

    Scales whose bootstrap probability hits 0 or 1 carry an infinite psi and
    are dropped.  When fewer than 3 scales survive the fit is None and the
    caller decides the fallback.  The second return value reports the
    per-scale bootstrap probabilities and psi values and which scales were
    dropped.
    """
    b_reps = scales.replicates_per_scale
    pts: list[tuple[float, float]] = []
    wts: list[float] = []
    psis: list[float] = []
    dropped: list[float] = []
    for (_, gamma2), bp in zip(scales.scales, bps, strict=True):
        if 0.0 < bp < 1.0:
            psi = psi_transform(bp, gamma2)
            pts.append((gamma2, psi))
            wts.append(1.0 / psi_variance(bp, gamma2, b_reps))
        else:
            psi = np.inf if bp <= 0.0 else -np.inf
            dropped.append(gamma2)
        psis.append(psi)
    info = {
        "bootstrap_probabilities": [float(bp) for bp in bps],
        "psi": psis,
        "scales_dropped": len(dropped),
        "dropped_gamma2": dropped,
    }
    if len(pts) < 3:
        return None, info
    return fit_scaling_law(pts, wts), info


def selective_p(phi_h_at_minus1: float, phi_s_at_0: float) -> float:
    """Selective p-value survival(phi_H(-1)) / survival(phi_H(-1) + phi_S(0)).

    Computed in log space so deep tails divide out exactly; clamped to [0, 1].
    A vanishing denominator (possible only for degenerate +inf inputs) maps
    to the conservative value 1.
    """
    p, _ = selective_p_detail(phi_h_at_minus1, phi_s_at_0)
    return p


def selective_p_detail(phi_h_at_minus1: float, phi_s_at_0: float) -> tuple[float, bool]:
    """As `selective_p`, also reporting whether the denominator degenerated."""
    a = float(phi_h_at_minus1)
    s = float(phi_s_at_0)
    if np.isnan(a) or np.isnan(s):
        raise ValueError("selective_p inputs must not be NaN")
    if not np.isfinite(a):
        raise ValueError("phi_H(-1) must be finite")
    log_num = log_ndtr(-a)
    log_den = log_ndtr(-(a + s))
    if log_den == -np.inf:
        return 1.0, True
    return float(min(1.0, np.exp(log_num - log_den))), False


def flat_hypothesis_distance(stat: MultiStat, i: int) -> float:
    """Signed distance t[i] / sqrt(sigma[i, i]) to the flat boundary {y_i = 0}.

    For a flat hypothesis boundary the curvature vanishes, so this constant
    already equals the extrapolated phi_H(-1).
    """
    var = float(stat.sigma[i, i])
    if var <= 0.0:
        raise DegenerateFeatureError(f"feature {i} has non-positive variance {var}")
    return float(stat.t[i] / np.sqrt(var))


def warn_selection_unconstraining() -> None:
    warnings.warn(
        "selection bootstrap probability degenerate at nearly all scales; "
        "treating the selection event as unconstraining",
        ScalesDroppedWarning,
        stacklevel=3,
    )
