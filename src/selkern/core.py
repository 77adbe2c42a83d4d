"""Shared containers, error types, and deterministic RNG derivation."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DataShapeError(ValueError):
    """Inputs have incompatible or invalid dimensions."""


class DegenerateSampleError(ValueError):
    """The sample admits no meaningful statistic (e.g. all rows identical)."""


class DegenerateFeatureError(ValueError):
    """A feature's estimated variance is zero."""


class InsufficientScalesError(RuntimeError):
    """Fewer than three usable scales survive for the scaling-law fit."""


class DataFormatError(ValueError):
    """Malformed input file."""


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator that is a pure function of ``(seed, key)``.

    Distinct keys yield statistically independent streams, so work items
    (features, scales, trials) can be computed in any order or in parallel
    without changing results.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def derive_seed(seed: int, *key: int) -> int:
    """64-bit integer sub-seed derived deterministically from ``(seed, key)``."""
    words = np.random.SeedSequence(seed, spawn_key=key).generate_state(2)
    return (int(words[0]) << 32) | int(words[1])


@dataclass(frozen=True)
class Design:
    """Index tuples defining an incomplete U-statistic over ``n`` items.

    ``tuples`` is an (l, arity) integer array; arity is 2 for two-sample
    pair statistics and 4 for independence statistics.  Tuples may repeat
    (sampling with replacement) but indices within a tuple are distinct.
    """

    tuples: np.ndarray
    n: int

    def __post_init__(self) -> None:
        tuples = np.asarray(self.tuples, dtype=np.intp)
        if tuples.ndim != 2:
            raise DataShapeError("design tuples must form a 2-D index array")
        object.__setattr__(self, "tuples", tuples)
        if len(tuples) == 0:
            raise DataShapeError("design is empty")
        if tuples.min() < 0 or tuples.max() >= self.n:
            raise DataShapeError(f"design indices must lie in [0, {self.n})")
        sorted_rows = np.sort(tuples, axis=1)
        if (np.diff(sorted_rows, axis=1) == 0).any():
            raise DataShapeError("design tuples must have distinct indices")

    def __len__(self) -> int:
        return len(self.tuples)

    @property
    def arity(self) -> int:
        return self.tuples.shape[1]


@dataclass
class MultiStat:
    """Scaled per-feature statistic vector with a factor of its estimated covariance.

    ``t[i]`` is the scaled estimate for feature i.  The sample covariance Σ of
    the per-tuple kernel evaluations across features estimates the covariance
    of ``t``; it is held only as ``factor``, any R of shape (r, d) with
    RᵀR = Σ, and never formed.  ``variances`` is diag(Σ), the squared column
    norms of R.  ``l`` counts the tuples (or blocks) and ``n`` the sample size.
    """

    t: np.ndarray
    factor: np.ndarray
    l: int
    n: int
    feature_names: list[str] = field(default_factory=list)
    variances: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.factor = np.asarray(self.factor, dtype=float)
        d = self.t.shape[0]
        if self.factor.ndim != 2 or self.factor.shape[1] != d:
            raise DataShapeError("factor must be 2-D with one column per entry of t")
        self.variances = np.einsum("ij,ij->j", self.factor, self.factor)
        if not self.feature_names:
            self.feature_names = [f"f{i}" for i in range(d)]
        if len(self.feature_names) != d:
            raise DataShapeError("feature_names length must match t")

    @classmethod
    def from_rows(cls, rows: np.ndarray, ddof: int, n: int,
                  feature_names: list[str] | None = None) -> "MultiStat":
        """sqrt(m) * mean of (m, d) per-feature ``rows``, whose covariance (divisor m - ddof) is Σ.

        The factor is the R of the QR of the centred rows over sqrt(m - ddof),
        shape (min(m, d), d), its rows signed so the diagonal is >= 0.
        """
        if not np.isfinite(rows).all():
            raise ValueError("statistic rows contain non-finite values")
        m = rows.shape[0]
        centered = rows - rows.mean(axis=0)
        factor = np.linalg.qr(centered / np.sqrt(m - ddof), mode="r")
        factor *= np.where(np.diag(factor) < 0, -1.0, 1.0)[:, None]
        return cls(t=np.sqrt(m) * rows.mean(axis=0), factor=factor, l=m, n=n,
                   feature_names=list(feature_names or []))

    @property
    def dim(self) -> int:
        return self.t.shape[0]
