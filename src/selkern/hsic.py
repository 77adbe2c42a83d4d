"""HSIC: the paired sample, and the per-tuple (incomplete) and per-block h
rows from which `selective.hsic_stat` builds the per-feature statistic.

The per-tuple rows compute the order-4 kernel h from the 6 index
pairs p of a quadruple, p' being the complementary pair of p:
h = 1/4 sum_p K_p (L_p + L_p') - (sum_p L_p / 12) sum_p K_p."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataShapeError, Design
from .kernels import _chunked_rows, pair_kernel

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
    """h from the kernel values on the 6 pairs of each quadruple (axis 1);
    overwrites Kp."""
    K_sum = Kp.sum(axis=1)
    Kp *= Lp + Lp[:, ::-1]
    return 0.25 * Kp.sum(axis=1) - Lp.sum(axis=1) / 12.0 * K_sum


def _quad_h_matrix(Z: JointSample, specs, specY, design: Design) -> np.ndarray:
    """(l, d) per-feature h values, one row per design tuple, from the kernel
    on each quadruple's 6 pairs, a chunk of tuples at a time; the response's
    squared distances sum over its columns."""
    def rows(chunk):
        a, b = design.tuples[chunk, _PAIRS].transpose(2, 0, 1)
        return _h_from_pairs(pair_kernel(specs, Z.X, a, Z.X, b), pair_kernel(specY, Z.Y, a, Z.Y, b)[..., None])
    return _chunked_rows(rows, len(design), 6 * Z.d)


def _block_hsic(Z: JointSample, specs, specY, block_size: int) -> np.ndarray:
    """(m, d) per-feature unbiased HSIC of the m = floor(n/B) blocks, in O(n B d),
    formed a chunk of blocks at a time.

    With K, L a block's Gram matrices with zeroed diagonals (Song et al. 2012),
    HSIC_u = [tr(KL) + 1'K1 1'L1 / ((B-1)(B-2)) - 2/(B-2) 1'KL1] / (B(B-3)).
    """
    B, m = block_size, Z.n // block_size
    Xb, Yb = Z.X[: m * B].reshape(m, B, -1), Z.Y[: m * B].reshape(m, B, -1)
    def rows(chunk):
        # Entry (b, s, u) pairs rows s and u of block b; each row depends on its own block alone.
        K = pair_kernel(specs, Xb[chunk], np.s_[:, :, None], Xb[chunk], np.s_[:, None])
        L = pair_kernel(specY, Yb[chunk], np.s_[:, :, None], Yb[chunk], np.s_[:, None])
        K[:, range(B), range(B)] = 0.0
        L[:, range(B), range(B)] = 0.0
        K_rows, L_rows = K.sum(axis=2), L.sum(axis=2)[..., None]
        K *= L[..., None]
        return (K.sum(axis=2).sum(axis=1)
                + K_rows.sum(axis=1) * L_rows.sum(axis=1) / ((B - 1) * (B - 2))
                - 2.0 / (B - 2) * (K_rows * L_rows).sum(axis=1)) / (B * (B - 3))
    return _chunked_rows(rows, m, B * B * Z.d)
