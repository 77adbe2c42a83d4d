"""HSIC estimators: complete U-statistic, incomplete, block, and the
per-feature multivariate statistic with its covariance.

The incomplete estimators compute the order-4 kernel h from the 6 index
pairs p of a quadruple, p' being the complementary pair of p:
h = 1/4 sum_p K_p (L_p + L_p') - (sum_p L_p / 12) sum_p K_p."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataShapeError, Design, MultiStat, derive_rng
from .designs import complete_quad_design, sample_quad_design
from .kernels import KernelSpec, flat_columns, gram_matrix, pair_kernel

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


def hsic_h(Kmat: np.ndarray, Lmat: np.ndarray, quad) -> float:
    """Order-4 U-statistic kernel: the average of K_st * (L_st + L_uv - 2 L_su)
    over all 24 permutations (s, t, u, v) of the quadruple."""
    quad = np.asarray(quad, dtype=np.intp)
    if quad.shape != (4,):
        raise DataShapeError("quad must contain exactly 4 indices")
    if len(set(quad.tolist())) != 4:
        raise DataShapeError("quad indices must be distinct")
    return float(_h_quad_values(Kmat, Lmat, quad[None, :])[0])


def _h_from_pairs(Kp: np.ndarray, Lp: np.ndarray) -> np.ndarray:
    """h from the kernel values on the 6 pairs of each quadruple (axis 1)."""
    return 0.25 * (Kp * (Lp + Lp[:, ::-1])).sum(axis=1) - Lp.sum(axis=1) / 12.0 * Kp.sum(axis=1)


def _h_quad_values(K: np.ndarray, L: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """(l,) h values for an (l, 4) array of index quadruples, read from Gram matrices."""
    a, b = quads[:, _PAIRS].transpose(2, 0, 1)
    return _h_from_pairs(K[a, b], L[a, b])


def hsic_u(Z: JointSample, specX: KernelSpec, specY: KernelSpec) -> float:
    """Unbiased complete U-statistic: average of h over all ordered distinct
    4-tuples.  Quartic in n; intended as an oracle for small samples (n <~ 40).

    Every ordering of each index set appears exactly once in the complete
    enumeration, so averaging the raw integrand K_st (L_st + L_uv - 2 L_su)
    equals averaging the permutation-symmetrized kernel.
    """
    if Z.n < 4:
        raise DataShapeError("need n >= 4")
    K = gram_matrix(specX, Z.X, Z.X)
    L = gram_matrix(specY, Z.Y, Z.Y)
    s, t, u, v = complete_quad_design(Z.n).tuples.T
    return float((K[s, t] * (L[s, t] + L[u, v] - 2.0 * L[s, u])).mean())


def hsic_incomplete(Z: JointSample, specX: KernelSpec, specY: KernelSpec, design: Design) -> float:
    """Design-averaged estimator (1/|D|) sum_{(i,j,q,r) in D} h(i,j,q,r)."""
    if design.arity != 4:
        raise DataShapeError("quadruple design required")
    if design.tuples.max() >= Z.n:
        raise DataShapeError("design indices exceed sample size")
    K = gram_matrix(specX, Z.X, Z.X)
    L = gram_matrix(specY, Z.Y, Z.Y)
    return float(_h_quad_values(K, L, design.tuples).mean())


def hsic_block(Z: JointSample, specX: KernelSpec, specY: KernelSpec, block_size: int) -> float:
    """Mean of complete U-statistics over disjoint blocks of ``block_size`` rows.

    Trailing rows that do not fill a block are discarded.  Agrees with
    `hsic_incomplete` run on `block_design` up to rounding.
    """
    if block_size < 4:
        raise DataShapeError("block size must be >= 4")
    if Z.n < block_size:
        raise DataShapeError("need at least one full block")
    blocks = Z.n // block_size
    vals = []
    for b in range(blocks):
        rows = slice(b * block_size, (b + 1) * block_size)
        vals.append(hsic_u(JointSample(Z.X[rows], Z.Y[rows]), specX, specY))
    return float(np.mean(vals))


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


def hsic_multistat_incomplete(
    Z: JointSample,
    specs: list[KernelSpec],
    specY: KernelSpec,
    r: float = 1.0,
    rng: np.random.Generator | None = None,
    feature_names: list[str] | None = None,
) -> MultiStat:
    """Per-feature scaled statistic sqrt(l) * HSIC_inc with its covariance factor.

    One quadruple design of size l = round(r * n) is shared across features;
    Σ is the sample covariance (divisor l - 1) of per-tuple h vectors.
    """
    l = int(round(r * Z.n))
    if l < 2:
        raise DataShapeError("design size round(r * n) must be >= 2")
    if rng is None:
        rng = derive_rng(0)
    design = sample_quad_design(Z.n, l, rng)
    return MultiStat.from_rows(_quad_h_matrix(Z, specs, specY, design), ddof=1, n=Z.n,
                               feature_names=feature_names)


def hsic_multistat_block(
    Z: JointSample,
    specs: list[KernelSpec],
    specY: KernelSpec,
    block_size: int,
    feature_names: list[str] | None = None,
) -> MultiStat:
    """Per-feature scaled statistic sqrt(m) * HSIC_blo over m = floor(n/B) blocks.

    Σ is the population-style covariance (divisor m) of the per-block
    vectors of feature-wise complete U-statistics; it is held as its factor.
    """
    if block_size < 4:
        raise DataShapeError("block size must be >= 4")
    if Z.n // block_size < 2:
        raise DataShapeError("need at least 2 full blocks")
    return MultiStat.from_rows(_block_hsic(Z, specs, specY, block_size), ddof=0, n=Z.n,
                               feature_names=feature_names)
