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
from statistics import NormalDist

import numpy as np

from .config import RunConfig
from .core import DataShapeError, InsufficientScalesError


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


def default_scales(n: int, config: RunConfig) -> tuple[float, ...]:
    """Variance scales gamma^2 = n / n', in increasing order, for
    ``config.scale_count`` resampling sizes n' log-spaced in
    [scale_low * n, scale_high * n].

    The sizes are rounded to integers >= 2 and deduplicated, so the grid
    runs from n/(scale_high*n) up to n/(scale_low*n).
    """
    if n < 4:
        raise DataShapeError("need n >= 4 to build a scale grid")
    raw = np.exp(np.linspace(np.log(config.scale_low * n), np.log(config.scale_high * n), config.scale_count))
    nprimes = sorted({max(2, int(round(v))) for v in raw}, reverse=True)
    scales = tuple(n / np_ for np_ in nprimes)
    if len(scales) < 3:
        raise InsufficientScalesError(f"n = {n} yields fewer than 3 distinct scales")
    return scales


def fit_scaling_law(gamma2, psi, weights) -> tuple[float, float, dict]:
    """Weighted least-squares line psi ~ beta0 + gamma^2 * beta1.

    Returns beta0, beta1 and the fit's diagnostics: the number of points
    and the residuals.  Callers tracking bootstrap noise pass the inverse
    delta-method variance of each psi, so the extrapolation is stabilized by
    the better-resolved scales.
    """
    x = np.asarray(gamma2, dtype=float)
    y = np.asarray(psi, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.ndim != 1 or y.shape != x.shape:
        raise ValueError("need one psi per gamma^2")
    if x.size < 3:
        raise InsufficientScalesError(f"need >= 3 usable points, got {x.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("scaling-law points must be finite")
    if w.shape != x.shape or (w <= 0).any():
        raise ValueError("weights must be positive, one per point")
    sw = np.sqrt(w)
    design = np.column_stack([np.ones_like(x), x]) * sw[:, None]
    coef, *_ = np.linalg.lstsq(design, y * sw, rcond=None)
    beta0, beta1 = float(coef[0]), float(coef[1])
    resid = y - (beta0 + beta1 * x)
    return beta0, beta1, {
        "points": int(x.size),
        "weighted_rss": float(np.sum(w * resid**2)),
        "rmse": float(np.sqrt(np.mean(resid**2))),
        "max_abs_residual": float(np.max(np.abs(resid))),
    }


def fit_bootstrap_probabilities(bps, gamma2, replicates: int) -> dict:
    """Fit the scaling law to one bootstrap probability per scale gamma^2,
    each the fraction of ``replicates`` draws; return the fit's diagnostics.

    An interior probability gives psi = gamma * z with z = -ndtri(BP), and
    the delta-method variance gamma^2 BP (1 - BP) / (B phi(z)^2) of psi
    weights its point.  Scales whose bootstrap probability hits 0 or 1
    carry an infinite psi and are dropped.  The diagnostics report the
    per-scale bootstrap probabilities and psi values and which scales were
    dropped.  When at least 3 scales survive they also hold the fitted line,
    ``fit_beta0`` and ``fit_beta1``, and `fit_scaling_law`'s diagnostics
    under ``fit_`` keys; otherwise there is no fit and the caller decides the
    fallback.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    points: list[tuple[float, float, float]] = []
    psis: list[float] = []
    dropped: list[float] = []
    for g2, bp in zip(gamma2, bps, strict=True):
        if 0.0 < bp < 1.0:
            z = -ndtri(bp)
            psi = float(np.sqrt(g2) * z)
            density = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
            points.append((g2, psi, 1.0 / (g2 * bp * (1.0 - bp) / (replicates * density**2))))
        else:
            psi = np.inf if bp <= 0.0 else -np.inf
            dropped.append(g2)
        psis.append(psi)
    diag = {
        "bootstrap_probabilities": [float(bp) for bp in bps],
        "psi": psis,
        "scales_dropped": len(dropped),
        "dropped_gamma2": dropped,
    }
    if len(points) >= 3:
        beta0, beta1, fit = fit_scaling_law(*zip(*points))
        diag.update({f"fit_{key}": value for key, value in {"beta0": beta0, "beta1": beta1, **fit}.items()})
    return diag
