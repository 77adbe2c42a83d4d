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
    # Far left tail: Phi(x) ~ phi(x) / -x * (1 + _tail_series(x)), taken in logs.
    return -0.5 * x * x - math.log(-x) - _LOG_SQRT_2PI + math.log1p(_tail_series(x))


def _tail_series(x):
    """-1/x^2 + 3/x^4 - 15/x^6 + ... to ten terms, for a float or an array:
    the normal tail Phi(-|x|) is phi(x) / |x| * (1 + the series).  From
    |x| = 20 on the tenth term is below 1e-17."""
    z = 1.0 / (x * x)
    term, series = 1.0, 0.0
    for k in range(1, 11):
        term *= -(2 * k - 1) * z
        series += term
    return series


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


def _weighted_lines(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> dict[str, np.ndarray]:
    """One weighted least-squares line y ~ beta0 + beta1 * x per row of the
    (lines, points) arrays, in closed centred form: beta1 =
    sum w (x - xbar)(y - ybar) / sum w (x - xbar)^2 and beta0 = ybar - beta1
    xbar, with weighted means.  A point of weight 0 is left out; its x and y
    must still be finite.  Returns each line's beta0, beta1, points,
    weighted RSS, RMSE and largest residual, as arrays over the lines.  Each
    row is summed on its own, so a line does not depend on the other rows."""
    inside = w > 0
    lowest = np.where(inside, x, np.inf).min(axis=1, initial=np.inf)
    if (lowest == np.where(inside, x, -np.inf).max(axis=1, initial=-np.inf)).any():
        raise ValueError("scaling-law points need at least two distinct gamma^2")
    total = w.sum(axis=1)
    xbar = (w * x).sum(axis=1) / total
    ybar = (w * y).sum(axis=1) / total
    dx = x - xbar[:, None]
    beta1 = (w * dx * (y - ybar[:, None])).sum(axis=1) / (w * dx * dx).sum(axis=1)
    beta0 = ybar - beta1 * xbar
    resid = np.where(inside, y - (beta0[:, None] + beta1[:, None] * x), 0.0)
    points = np.count_nonzero(inside, axis=1)
    return {
        "beta0": beta0,
        "beta1": beta1,
        "points": points,
        "weighted_rss": (w * resid**2).sum(axis=1),
        "rmse": np.sqrt((resid**2).sum(axis=1) / points),
        "max_abs_residual": np.abs(resid).max(axis=1, initial=0.0),
    }


def fit_bootstrap_probabilities(bps, gamma2, replicates: int) -> list[dict]:
    """Fit the scaling law psi ~ beta0 + gamma^2 * beta1 to bootstrap
    probabilities, one row per scale gamma^2 and one column per feature,
    each the fraction of ``replicates`` draws; return one diagnostics dict
    per column.  All columns are fitted at once, each by its own weighted
    least-squares line.

    An interior probability gives psi = gamma * z with z = -ndtri(BP), and
    the delta-method variance gamma^2 BP (1 - BP) / (B phi(z)^2) of psi
    weights its point, so the extrapolation is stabilized by the
    better-resolved scales.  Scales whose bootstrap probability hits 0 or 1
    carry an infinite psi and are dropped.  The diagnostics report the
    per-scale bootstrap probabilities and psi values and which scales were
    dropped.  When at least 3 scales survive they also hold the fitted line,
    ``fit_beta0`` and ``fit_beta1``, and the fit's points and residuals
    under ``fit_`` keys; otherwise there is no fit and the caller decides the
    fallback.  The scales need two distinct gamma^2.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    g2 = np.asarray(gamma2, dtype=float)
    given = np.asarray(bps, dtype=float)
    if g2.ndim != 1 or given.ndim != 2 or given.shape[0] != g2.size:
        raise ValueError("need one bootstrap probability per gamma^2 in each column")
    # One row per feature, so each feature's sums run along a contiguous row.
    rows = np.ascontiguousarray(given.T)
    interior = (rows > 0.0) & (rows < 1.0)
    bp = rows[interior]
    scale = np.broadcast_to(g2, rows.shape)[interior]
    z = -np.array([ndtri(p) for p in bp.tolist()])
    density = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    psi = np.where(rows <= 0.0, np.inf, -np.inf)
    psi[interior] = np.sqrt(scale) * z
    weights = np.zeros(rows.shape)
    weights[interior] = 1.0 / (scale * bp * (1.0 - bp) / (replicates * density**2))
    fitted = np.flatnonzero(np.count_nonzero(interior, axis=1) >= 3)
    lines = _weighted_lines(g2[None], np.where(interior, psi, 0.0)[fitted], weights[fitted])
    lines = {f"fit_{key}": value.tolist() for key, value in lines.items()}
    fits = {feature: {key: value[j] for key, value in lines.items()} for j, feature in enumerate(fitted.tolist())}
    diags = []
    for feature, row in enumerate(rows):
        dropped = g2[~interior[feature]]
        diags.append({
            "bootstrap_probabilities": row.tolist(),
            "psi": psi[feature].tolist(),
            "scales_dropped": int(dropped.size),
            "dropped_gamma2": dropped.tolist(),
            **fits.get(feature, {}),
        })
    return diags
