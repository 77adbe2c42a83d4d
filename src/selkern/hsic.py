"""HSIC: the paired sample, and the per-tuple (incomplete) and per-block h
rows from which `selective.hsic_stat` builds the per-feature statistic.

The per-tuple rows compute the order-4 kernel h from the 6 index
pairs p of a quadruple, p' being the complementary pair of p:
h = 1/4 sum_p K_p (L_p + L_p') - (sum_p L_p / 12) sum_p K_p."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataShapeError, Design
from .kernels import KernelSpec, flat_columns, pair_kernel

# The 6 index pairs of a quadruple, ordered so that pair p's complement is 5 - p.
_PAIRS = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], dtype=np.intp)


@dataclass(frozen=True)
class JointSample:
    """Paired covariate/response draws from a joint distribution."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self) -> None:
        # C order keeps every reduction's summation order independent of the input's layout.
        X = np.atleast_2d(np.ascontiguousarray(self.X, dtype=float))
        Y = np.ascontiguousarray(self.Y, dtype=float)
        if Y.ndim == 1:
            Y = Y[:, None]
        if X.shape[0] != Y.shape[0]:
            raise DataShapeError("X and Y must have equal row counts")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _h_from_pairs(Kp: np.ndarray, Lp: np.ndarray) -> np.ndarray:
    """h from the kernel values on the 6 pairs of each quadruple (axis 1)."""
    return 0.25 * (Kp * (Lp + Lp[:, ::-1])).sum(axis=1) - Lp.sum(axis=1) / 12.0 * Kp.sum(axis=1)


def _constant_kernel(X: np.ndarray, specs: list[KernelSpec]) -> np.ndarray:
    """Mask of the features whose kernel is constant on the sample: a flat
    column (see `flat_columns`), or an infinite Gaussian bandwidth."""
    return flat_columns(X) | np.isinf([s.bandwidth for s in specs])


def _quad_h_matrix(Z: JointSample, specs, specY, design: Design) -> np.ndarray:
    """(l, d) per-feature h values, one row per design tuple, from the kernel
    on each quadruple's 6 pairs; the response's squared distances sum over its
    columns.  The h of a feature with a constant kernel (see `_constant_kernel`)
    is exactly 0, which the formula reaches only up to rounding, so its column
    is set to 0 directly.
    """
    a, b = design.tuples[:, _PAIRS].transpose(2, 0, 1)
    K = pair_kernel(specs, Z.X, a, Z.X, b)
    H = _h_from_pairs(K, pair_kernel(specY, Z.Y, a, Z.Y, b)[..., None])
    H[:, _constant_kernel(Z.X, specs)] = 0.0
    return H


def _block_hsic(Z: JointSample, specs, specY, block_size: int) -> np.ndarray:
    """(m, d) per-feature unbiased HSIC of the m = floor(n/B) blocks, in O(n B d).

    With K, L a block's Gram matrices with zeroed diagonals (Song et al. 2012),
    HSIC_u = [tr(KL) + 1'K1 1'L1 / ((B-1)(B-2)) - 2/(B-2) 1'KL1] / (B(B-3)).
    A feature with a constant kernel gets exactly 0, as in `_quad_h_matrix`.
    """
    B, m = block_size, Z.n // block_size
    Xb, Yb = Z.X[: m * B].reshape(m, B, -1), Z.Y[: m * B].reshape(m, B, -1)
    # Entry (b, s, u) pairs rows s and u of block b.
    K = pair_kernel(specs, Xb, np.s_[:, :, None], Xb, np.s_[:, None])
    L = pair_kernel(specY, Yb, np.s_[:, :, None], Yb, np.s_[:, None])
    K[:, range(B), range(B)] = 0.0
    L[:, range(B), range(B)] = 0.0
    K_rows, L_rows = K.sum(axis=2), L.sum(axis=2)[..., None]
    eta = ((K * L[..., None]).sum(axis=2).sum(axis=1)
           + K_rows.sum(axis=1) * L_rows.sum(axis=1) / ((B - 1) * (B - 2))
           - 2.0 / (B - 2) * (K_rows * L_rows).sum(axis=1)) / (B * (B - 3))
    eta[:, _constant_kernel(Z.X, specs)] = 0.0
    return eta
