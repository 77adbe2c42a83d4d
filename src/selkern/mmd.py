"""Squared MMD: the per-pair h rows of the incomplete U-statistic, from
which `selective.mmd_stat` builds the per-feature statistic."""
from __future__ import annotations

import numpy as np

from .core import DataShapeError
from .kernels import KernelSpec, pair_kernel


def _check_two_sample(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape != Y.shape:
        raise DataShapeError(f"samples must have equal shape, got {X.shape} vs {Y.shape}")
    return X, Y


def _pair_h(X, Y, i, j, spec: KernelSpec | list[KernelSpec]) -> np.ndarray:
    """h values of the index pairs (i[t], j[t]): (l,) with one spec on whole
    rows, (l, d) with a list of d specs, spec f on column f."""
    Xi, Yi, Xj, Yj = X[i], Y[i], X[j], Y[j]
    return (pair_kernel(spec, Xi, ..., Xj, ...) + pair_kernel(spec, Yi, ..., Yj, ...)
            - pair_kernel(spec, Xj, ..., Yi, ...) - pair_kernel(spec, Xi, ..., Yj, ...))

