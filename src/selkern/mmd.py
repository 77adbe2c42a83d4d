"""Squared-MMD estimators: complete U-statistic, incomplete, and the
per-tuple h rows from which `selective.mmd_stat` builds the per-feature
statistic."""
from __future__ import annotations

import numpy as np

from .core import DataShapeError, Design
from .kernels import KernelSpec, gram_matrix, kernel_eval, pair_kernel


def mmd_h(x, xp, y, yp, spec: KernelSpec) -> float:
    """Pairwise U-statistic kernel K(x,x') + K(y,y') - K(x',y) - K(x,y')."""
    return (
        kernel_eval(spec, x, xp)
        + kernel_eval(spec, y, yp)
        - kernel_eval(spec, xp, y)
        - kernel_eval(spec, x, yp)
    )


def _check_two_sample(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape != Y.shape:
        raise DataShapeError(f"samples must have equal shape, got {X.shape} vs {Y.shape}")
    return X, Y


def _offdiag_sum(M: np.ndarray) -> float:
    return float(M.sum() - np.trace(M))


def mmd_u(X: np.ndarray, Y: np.ndarray, spec: KernelSpec) -> float:
    """Unbiased complete U-statistic (1/(n(n-1))) sum_{i != j} h(z_i, z_j)."""
    X, Y = _check_two_sample(X, Y)
    n = X.shape[0]
    if n < 2:
        raise DataShapeError("need n >= 2")
    kxx = gram_matrix(spec, X, X)
    kyy = gram_matrix(spec, Y, Y)
    kxy = gram_matrix(spec, X, Y)
    return (_offdiag_sum(kxx) + _offdiag_sum(kyy) - 2.0 * _offdiag_sum(kxy)) / (n * (n - 1))


def _pair_h(X, Y, i, j, spec: KernelSpec | list[KernelSpec]) -> np.ndarray:
    """h values of the index pairs (i[t], j[t]): (l,) with one spec on whole
    rows, (l, d) with a list of d specs, spec f on column f."""
    Xi, Yi, Xj, Yj = X[i], Y[i], X[j], Y[j]
    return (pair_kernel(spec, Xi, ..., Xj, ...) + pair_kernel(spec, Yi, ..., Yj, ...)
            - pair_kernel(spec, Xj, ..., Yi, ...) - pair_kernel(spec, Xi, ..., Yj, ...))


def mmd_incomplete(X: np.ndarray, Y: np.ndarray, spec: KernelSpec, design: Design) -> float:
    """Incomplete estimator (1/|D|) sum_{(i,j) in D} h(z_i, z_j)."""
    X, Y = _check_two_sample(X, Y)
    if design.arity != 2:
        raise DataShapeError("pair design required")
    if design.tuples.max() >= X.shape[0]:
        raise DataShapeError("design indices exceed sample size")
    return float(_pair_h(X, Y, *design.tuples.T, spec).mean())
