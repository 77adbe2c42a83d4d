"""HSIC estimators: complete U-statistic, incomplete, block, and the
per-feature multivariate statistic with its covariance."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import DataShapeError, Design, MultiStat, derive_rng
from .designs import block_design, complete_quad_design, sample_quad_design
from .kernels import KernelSpec, gram_matrix
from .mmd import _h_covariance

_PERM4 = np.array(list(permutations(range(4))), dtype=np.intp)


@dataclass(frozen=True)
class JointSample:
    """Paired covariate/response draws from a joint distribution."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self) -> None:
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.asarray(self.Y, dtype=float)
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


def _h_quad_values(K: np.ndarray, L: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """(l,) symmetrized h values for an (l, 4) array of index quadruples."""
    acc = np.zeros(len(quads))
    for perm in _PERM4:
        s, t, u, v = (quads[:, p] for p in perm)
        acc += K[s, t] * (L[s, t] + L[u, v] - 2.0 * L[s, u])
    return acc / len(_PERM4)


def _bracket_values(K: np.ndarray, L: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """Unsymmetrized integrand K_st (L_st + L_uv - 2 L_su), one value per tuple."""
    s, t, u, v = quads.T
    return K[s, t] * (L[s, t] + L[u, v] - 2.0 * L[s, u])


def hsic_u(Z: JointSample, specX: KernelSpec, specY: KernelSpec) -> float:
    """Unbiased complete U-statistic: average of h over all ordered distinct
    4-tuples.  Quartic in n; intended as an oracle for small samples (n <~ 40).

    Every ordering of each index set appears exactly once in the complete
    enumeration, so averaging the raw integrand equals averaging the
    permutation-symmetrized kernel.
    """
    n = Z.n
    if n < 4:
        raise DataShapeError("need n >= 4")
    K = gram_matrix(specX, Z.X, Z.X)
    L = gram_matrix(specY, Z.Y, Z.Y)
    design = complete_quad_design(n)
    return float(_bracket_values(K, L, design.tuples).mean())


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


def _quad_h_matrix(Z: JointSample, specs, specY, design: Design) -> np.ndarray:
    """(l, d) per-feature h values, one row per design tuple.

    Gram matrices are built once per feature so each tuple costs O(1) lookups.
    A constant feature's h is exactly 0, which the summed Gram terms would
    reach only up to rounding, so its column is set to 0 directly.
    """
    L = gram_matrix(specY, Z.Y, Z.Y)
    cols = []
    for f, spec in enumerate(specs):
        x = Z.X[:, [f]]
        if (x == x[0]).all():
            cols.append(np.zeros(len(design)))
            continue
        K = gram_matrix(spec, x, x)
        cols.append(_h_quad_values(K, L, design.tuples))
    return np.column_stack(cols)


def hsic_multistat_incomplete(
    Z: JointSample,
    specs: list[KernelSpec],
    specY: KernelSpec,
    r: float = 1.0,
    rng: np.random.Generator | None = None,
    feature_names: list[str] | None = None,
) -> MultiStat:
    """Per-feature scaled statistic sqrt(l) * HSIC_inc with its covariance.

    One quadruple design of size l = round(r * n) is shared across features;
    sigma is the sample covariance (divisor l - 1) of per-tuple h vectors.
    """
    n, d = Z.n, Z.d
    if len(specs) != d:
        raise DataShapeError("need one kernel spec per feature")
    l = int(round(r * n))
    if l < 2:
        raise DataShapeError("design size round(r * n) must be >= 2")
    if rng is None:
        rng = derive_rng(0)
    design = sample_quad_design(n, l, rng)
    H = _quad_h_matrix(Z, specs, specY, design)
    t = np.sqrt(l) * H.mean(axis=0)
    sigma = _h_covariance(H, ddof=1)
    return MultiStat(t=t, sigma=sigma, l=l, feature_names=list(feature_names or []))


def hsic_multistat_block(
    Z: JointSample,
    specs: list[KernelSpec],
    specY: KernelSpec,
    block_size: int,
    feature_names: list[str] | None = None,
) -> MultiStat:
    """Per-feature scaled statistic sqrt(m) * HSIC_blo over m = floor(n/B) blocks.

    sigma is the population-style covariance (divisor m) of the per-block
    vectors of feature-wise complete U-statistics.
    """
    n, d = Z.n, Z.d
    if len(specs) != d:
        raise DataShapeError("need one kernel spec per feature")
    if block_size < 4:
        raise DataShapeError("block size must be >= 4")
    blocks = n // block_size
    if blocks < 2:
        raise DataShapeError("need at least 2 full blocks")
    design = block_design(n, block_size)
    per_block = len(design) // blocks
    H = _quad_h_matrix(Z, specs, specY, design)
    eta = H.reshape(blocks, per_block, d).mean(axis=1)
    t = np.sqrt(blocks) * eta.mean(axis=0)
    centered = eta - eta.mean(axis=0)
    sigma = centered.T @ centered / blocks
    sigma = (sigma + sigma.T) / 2.0
    return MultiStat(t=t, sigma=sigma, l=blocks, feature_names=list(feature_names or []))
