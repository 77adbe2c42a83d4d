"""Positive-definite kernels, Gram matrices, and bandwidth selection."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .core import DataShapeError, DegenerateSampleError

GAUSSIAN = "gaussian"
IMQ = "imq"
_FAMILIES = (GAUSSIAN, IMQ)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family with its hyperparameters.

    Gaussian: K(x, y) = exp(-||x - y||^2 / (2 * bandwidth^2)), values in (0, 1].
    IMQ:      K(x, y) = (offset^2 + ||x - y||^2)^(-1/2), values in (0, 1/offset].
    """

    family: str = GAUSSIAN
    bandwidth: float = 1.0
    offset: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
        if not self.offset > 0:
            raise ValueError("offset must be positive")


def _apply(spec: KernelSpec | list[KernelSpec], sqdist: np.ndarray) -> np.ndarray:
    """Kernel values from squared distances.  One spec applies to every entry;
    a list of d specs of one family applies spec f's bandwidth or offset to
    index f of the last axis, which must have length d.  Mixed families raise
    `ValueError`."""
    if isinstance(spec, KernelSpec):
        return _apply([spec], np.asarray(sqdist)[..., None])[..., 0]
    if len({s.family for s in spec}) != 1:
        raise ValueError("kernel specs must share one family")
    if len(spec) != np.shape(sqdist)[-1]:
        raise DataShapeError("need one kernel spec per feature")
    if spec[0].family == GAUSSIAN:
        return np.exp(-sqdist / (2.0 * np.array([s.bandwidth for s in spec]) ** 2))
    return (np.array([s.offset for s in spec]) ** 2 + sqdist) ** -0.5


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel on a single pair of points (scalars or vectors)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise DataShapeError(f"point dimensions differ: {x.shape} vs {y.shape}")
    diff = x - y
    return float(_apply(spec, diff @ diff))


def gram_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kernel matrix with entry (i, j) = K(A[i], B[j])."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DataShapeError(f"column counts differ: {A.shape[1]} vs {B.shape[1]}")
    return _apply(spec, cdist(A, B, "sqeuclidean"))


def median_heuristic(pooled: np.ndarray) -> float:
    """Bandwidth sigma with sigma^2 = median of squared pairwise distances / 2.

    Zero distances from duplicated rows enter the median.  If duplicates are
    so frequent that the median itself is zero, the median of the positive
    squared distances is used instead, so the returned bandwidth is always
    positive; fully degenerate input (all rows identical) is an error.
    """
    pooled = np.asarray(pooled, dtype=float)
    if pooled.ndim == 1:
        pooled = pooled[:, None]
    if pooled.shape[0] < 2:
        raise DataShapeError("median heuristic needs at least 2 rows")
    sq = pdist(pooled, "sqeuclidean")
    med = float(np.median(sq))
    if med <= 0.0:
        positive = sq[sq > 0]
        if positive.size == 0:
            raise DegenerateSampleError("all rows identical: median distance is 0")
        med = float(np.median(positive))
    return float(np.sqrt(med / 2.0))

