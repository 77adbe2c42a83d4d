"""Parametric multiscale bootstrap.

Replicates of a Gaussian statistic are drawn at several variance scales
gamma^2; the fraction landing in a region is turned into a normalized
z-value psi = gamma * inverse-survival(BP), which follows the scaling law
psi ~ beta0 + gamma^2 * beta1 (signed distance plus curvature).  Fitting
the law over the scale grid and extrapolating to gamma^2 = 0 or -1 yields
the geometric quantities that drive selective p-values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .core import (
    DataShapeError,
    DegenerateFeatureError,
    InsufficientScalesError,
    MultiStat,
)


#: Inverse of the standard normal CDF, by Wichura's AS241 (as scipy's ndtri).
ndtri = NormalDist().inv_cdf

_SQRT1_2 = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_ndtr_scalar(x: float) -> float:
    if x > 0.0:
        # log1p keeps the digits of log(1 - tiny) that log would round away.
        return math.log1p(-0.5 * math.erfc(x * _SQRT1_2))
    if x > -20.0:
        return math.log(0.5 * math.erfc(-x * _SQRT1_2))
    if math.isnan(x) or x == -math.inf:
        return x
    # Far left tail: Phi(x) ~ phi(x) / -x * (1 - 1/x^2 + 3/x^4 - 15/x^6 + ...),
    # taken in logs; at x = -20 the tenth term is below 1e-17.
    z = 1.0 / (x * x)
    term, series = 1.0, 0.0
    for k in range(1, 11):
        term *= -(2 * k - 1) * z
        series += term
    return -0.5 * x * x - math.log(-x) - _LOG_SQRT_2PI + math.log1p(series)


def log_ndtr(x):
    """Log of the standard normal CDF, tail-stable, for a scalar or an array.

    A scalar gives a float; an array gives a float array of its shape.
    """
    if np.ndim(x) == 0:
        return _log_ndtr_scalar(float(x))
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(_log_ndtr_scalar, x.ravel().tolist()), float, x.size).reshape(x.shape)


class ScalesDroppedWarning(UserWarning):
    """Too few interior bootstrap probabilities to constrain the fit."""


@dataclass(frozen=True)
class ScaleSet:
    """Variance scales gamma^2 of the bootstrap, in increasing order."""

    scales: tuple[float, ...]
    replicates_per_scale: int = 2000

    def __post_init__(self) -> None:
        if len(self.scales) < 3:
            raise InsufficientScalesError("need at least 3 scales")
        # Phrased so that a NaN gamma^2 fails them.
        if not all(g > 0 for g in self.scales):
            raise ValueError("gamma^2 must be positive")
        if not all(b > a for a, b in zip(self.scales, self.scales[1:])):
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
    """Variance scales gamma^2 = n / n' for ``count`` resampling sizes n'
    log-spaced in [low * n, high * n].

    The sizes are rounded to integers >= 2 and deduplicated, so the grid
    runs from n/(high*n) up to n/(low*n).
    """
    if n < 4:
        raise DataShapeError("need n >= 4 to build a scale grid")
    raw = np.exp(np.linspace(np.log(low * n), np.log(high * n), count))
    nprimes = sorted({max(2, int(round(v))) for v in raw}, reverse=True)
    scales = tuple(n / np_ for np_ in nprimes)
    if len(scales) < 3:
        raise InsufficientScalesError(f"n = {n} yields fewer than 3 distinct scales")
    return ScaleSet(scales=scales, replicates_per_scale=replicates_per_scale)


def psi_transform(bp: float, gamma2: float) -> float:
    """Normalized bootstrap z-value gamma * inverse-survival(BP)."""
    if not 0.0 < bp < 1.0:
        raise ValueError("bootstrap probability must lie strictly inside (0, 1)")
    return float(np.sqrt(gamma2) * -ndtri(bp))


def psi_variance(bp: float, gamma2: float, b_reps: int) -> float:
    """Delta-method variance of psi given the binomial noise of BP."""
    if b_reps < 1:
        raise ValueError("b_reps must be >= 1")
    z = psi_transform(bp, 1.0)  # rejects bp outside (0, 1)
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
    for gamma2, bp in zip(scales.scales, bps, strict=True):
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


def selective_p_detail(phi_h_at_minus1: float, phi_s_at_0: float) -> tuple[float, bool]:
    """Selective p-value survival(phi_H(-1)) / survival(phi_H(-1) + phi_S(0)),
    and whether its denominator degenerated.

    Computed in log space so deep tails divide out exactly; clamped to [0, 1].
    A vanishing denominator (possible only for degenerate +inf inputs) maps
    to the conservative value 1 and is reported as degenerate.
    """
    a = float(phi_h_at_minus1)
    s = float(phi_s_at_0)
    if np.isnan(a) or np.isnan(s):
        raise ValueError("selective p-value inputs must not be NaN")
    if not np.isfinite(a):
        raise ValueError("phi_H(-1) must be finite")
    log_num = log_ndtr(-a)
    log_den = log_ndtr(-(a + s))
    if log_den == -np.inf:
        return 1.0, True
    return float(min(1.0, np.exp(log_num - log_den))), False


def flat_hypothesis_distance(stat: MultiStat, i: int) -> float:
    """Signed distance t[i] / sqrt(Sigma[i, i]) to the flat boundary {y_i = 0}.

    For a flat hypothesis boundary the curvature vanishes, so this constant
    already equals the extrapolated phi_H(-1).
    """
    var = float(stat.variances[i])
    if var <= 0.0:
        raise DegenerateFeatureError(f"feature {i} has non-positive variance {var}")
    return float(stat.t[i] / np.sqrt(var))

