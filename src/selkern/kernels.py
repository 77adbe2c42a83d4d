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
    positive; input with no positive squared distance (all rows identical,
    or differences whose squares underflow) is an error.  One-column input
    takes the exact sort-and-select path of `median_bandwidths`.
    """
    pooled = np.asarray(pooled, dtype=float)
    if pooled.ndim == 1:
        pooled = pooled[:, None]
    if pooled.shape[0] < 2:
        raise DataShapeError("median heuristic needs at least 2 rows")
    if pooled.shape[1] == 1:
        width = float(median_bandwidths(pooled)[0])
        if np.isnan(width):
            raise DegenerateSampleError("no positive squared distance between rows")
        return width
    sq = pdist(pooled, "sqeuclidean")
    med = float(np.median(sq))
    if med <= 0.0:
        positive = sq[sq > 0]
        if positive.size == 0:
            raise DegenerateSampleError("all rows identical: median distance is 0")
        med = float(np.median(positive))
    return float(np.sqrt(med / 2.0))


def flat_columns(A: np.ndarray) -> np.ndarray:
    """Mask of the columns of A with no positive squared pairwise difference.

    The largest difference is max - min, and rounding keeps squares and
    differences monotone, so a column is flat exactly when (max - min)^2 is 0:
    a constant column, or one whose differences all square to underflow.
    """
    A = np.asarray(A, dtype=float)
    with np.errstate(over="ignore"):
        return (A.max(axis=0) - A.min(axis=0)) ** 2 == 0


# The largest double whose square rounds to 0.
_SQUARE_UNDERFLOW = 1.5717277847026285e-162
# Pairs drawn per column and round to bracket the target ranks, and the band
# size per column below which the band is gathered and selected in.  Both
# are fixed so that memory does not grow with the number of rows.
_BRACKET_DRAWS = 1024
_BAND_LIMIT = 4096
# Bracket half-width in sampling standard deviations of the target quantile.
_BRACKET_Z = 3.0
# The draws only steer the search; every result is exact whatever they are.
_BRACKET_SEED = 0x5E1EC7


def median_bandwidths(pooled: np.ndarray) -> np.ndarray:
    """Median-heuristic bandwidths of every column of an (m, d) array at once.

    Entry c equals ``median_heuristic(pooled[:, [c]])`` bit for bit,
    including the fall-back to the positive squared differences; a flat
    column (see `flat_columns`) gets NaN.  Each column is sorted once; the
    m(m-1)/2 differences fl(x_j - x_i) of a sorted column are monotone in j,
    so their order statistics are selected by counting (Johnson & Mizoguchi
    1978; Croux & Rousseeuw 1992), never forming all pairs: each round costs
    O(m log m) per column and shrinks the candidates by a roughly constant
    factor.  Squaring is monotone too, so the middle squared differences are
    the squares of the middle differences.
    """
    pooled = np.asarray(pooled, dtype=float)
    if pooled.ndim != 2 or pooled.shape[0] < 2:
        raise DataShapeError("median bandwidths need an (m, d) array with m >= 2")
    if not np.isfinite(pooled).all():
        raise ValueError("data contain NaN or infinite values")
    m = pooled.shape[0]
    n_pairs = m * (m - 1) // 2
    flat = flat_columns(pooled)
    xs = np.ascontiguousarray(np.sort(pooled[:, ~flat], axis=0).T)
    # Differences and squares may overflow to inf, as they do in `pdist`.
    with np.errstate(over="ignore"):
        med = _median_square(xs, np.array([[(n_pairs - 1) // 2, n_pairs // 2]]))
        zero = med <= 0.0
        if zero.any():
            # Rank the positive squared differences past the z that round to 0.
            xz = xs[zero]
            z = (_ends(xz, np.full(len(xz), _SQUARE_UNDERFLOW))[1] - np.arange(1, m + 1)).sum(axis=1)
            positive = n_pairs - z
            med[zero] = _median_square(xz, z[:, None] + np.stack([(positive - 1) // 2, positive // 2], 1))
    widths = np.full(pooled.shape[1], np.nan)
    widths[~flat] = np.sqrt(med / 2.0)
    return widths


def _median_square(xs: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The median of each row's squared differences, given the ranks of its
    middle element(s), combined as `np.median` combines them."""
    ranks = np.broadcast_to(ranks, (xs.shape[0], 2))
    sq = _differences_at_ranks(xs, ranks) ** 2
    return np.where(ranks[:, 0] == ranks[:, 1], sq[:, 0], (sq[:, 0] + sq[:, 1]) / 2.0)


def _differences_at_ranks(xs: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """(d, 2) values at the 0-based ``ranks`` among the sorted differences
    fl(xs[c, j] - xs[c, i]), i < j, of each sorted row c of ``xs``.

    The candidates of row c form a band, the open value interval
    (low[c], high[c]): row i holds it at j in [lo_end[c, i], hi_end[c, i]),
    and below[c] differences precede it.  Each round brackets the open ranks
    by quantiles of differences drawn from the band, counts exactly where
    the two bracket values fall, and so resolves a rank that lands on a
    bracket value or narrows the band to the open interval between them.
    A band of at most `_BAND_LIMIT` differences is gathered and partitioned.
    """
    d, m = xs.shape
    first = np.arange(1, m + 1)
    low, high = np.full(d, -np.inf), np.full(d, np.inf)
    lo_end, hi_end = np.tile(first, (d, 1)), np.full((d, m), m)
    below = np.zeros(d, dtype=np.int64)
    found = np.full((d, 2), np.nan)
    rng = np.random.default_rng(_BRACKET_SEED)
    while True:
        size = (hi_end - lo_end).sum(axis=1)
        act = np.flatnonzero(np.isnan(found).any(axis=1) & (size > _BAND_LIMIT))
        if not act.size:
            break
        xa, k, open_ = xs[act], ranks[act], np.isnan(found[act])
        sample = np.sort(_band_draws(xa, lo_end[act], hi_end[act], rng), axis=1)
        rel = k - below[act, None]
        low_v = _bracket_value(sample, np.where(open_[:, 0], rel[:, 0], rel[:, 1]),
                               size[act], -1, low[act])
        high_v = _bracket_value(sample, np.where(open_[:, 1], rel[:, 1], rel[:, 0]),
                                size[act], 1, high[act])
        lt_low, le_low = _ends(xa, low_v)
        lt_high, le_high = _ends(xa, high_v)
        a, b, c, e = ((E - first).sum(axis=1)[:, None] for E in (lt_low, le_low, lt_high, le_high))
        at_low, at_high = open_ & (a <= k) & (k < b), open_ & (c <= k) & (k < e)
        inside = (b <= k) & (k < c)
        found[act] = np.where(at_low, low_v[:, None], np.where(at_high, high_v[:, None], found[act]))
        # A rank outside [a, e) means the draws missed it: keep the band and draw again.
        held = (~open_ | at_low | at_high | inside).all(axis=1)
        upd = act[held]
        low[upd], high[upd], below[upd] = low_v[held], high_v[held], b[held, 0]
        lo_end[upd], hi_end[upd] = le_low[held], lt_high[held]
    # Gather each remaining band and select in it, one column at a time.
    flat = xs.ravel()
    for col in np.flatnonzero(np.isnan(found).any(axis=1)):
        row, j = _band_rows(lo_end[col:col + 1], hi_end[col:col + 1], np.arange(size[col]))
        band = flat[col * m + j] - flat[col * m + row]
        open_ = np.isnan(found[col])
        rel = ranks[col, open_] - below[col]
        found[col, open_] = np.partition(band, rel)[rel]
    return found


def _band_rows(lo_end: np.ndarray, hi_end: np.ndarray, offsets: np.ndarray):
    """Flat row index (c*m + i) and column j of the band members at ``offsets``,
    positions counted over the bands of all columns laid end to end."""
    width = (hi_end - lo_end).ravel()
    ends = np.cumsum(width)
    row = np.searchsorted(ends, offsets, "right")
    return row, lo_end.ravel()[row] + offsets - (ends[row] - width[row])


def _band_draws(xs: np.ndarray, lo_end: np.ndarray, hi_end: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """(d, _BRACKET_DRAWS) differences drawn uniformly, with replacement, from each band."""
    d, m = xs.shape
    size = (hi_end - lo_end).sum(axis=1)
    offsets = (np.cumsum(size) - size)[:, None] + rng.integers(0, size[:, None], (d, _BRACKET_DRAWS))
    row, j = _band_rows(lo_end, hi_end, offsets.ravel())
    flat = xs.ravel()
    return (flat[row - row % m + j] - flat[row]).reshape(d, _BRACKET_DRAWS)


def _bracket_value(sample: np.ndarray, rank: np.ndarray, size: np.ndarray, side: int,
                   fallback: np.ndarray) -> np.ndarray:
    """A sample quantile that lies below (side -1) or above (side 1) the
    band's rank-``rank`` difference with high probability; ``fallback``
    where that quantile falls outside the sample."""
    draws = sample.shape[1]
    q = (rank + 0.5) / size
    pos = q * draws + side * (_BRACKET_Z * np.sqrt(draws * q * (1.0 - q)) + 1.0)
    pos = (np.floor(pos) if side < 0 else np.ceil(pos)).astype(np.int64)
    inside = (pos >= 0) & (pos < draws)
    return np.where(inside, sample[np.arange(len(pos)), np.clip(pos, 0, draws - 1)], fallback)


def _column_keys(values: np.ndarray) -> np.ndarray:
    """Flat complex keys c + 1j*values[c, i], which sort by row c, then by value.
    Set part by part: 1j * inf would make the real part NaN."""
    keys = np.empty(values.size, dtype=complex)
    keys.real = np.repeat(np.arange(values.shape[0]), values.shape[1])
    keys.imag = values.ravel()
    return keys


def _ends(xs: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two (d, m) arrays whose entry (c, i) is the first j > i at which
    fl(xs[c, j] - xs[c, i]) < v[c], respectively <= v[c], fails (m if none).
    The rows of ``xs`` are sorted, so the differences of a row are monotone.

    A `searchsorted` for xs[c, i] + v[c] is the first guess, and the first
    result is the guess for the second.  The fix-up then moves each end past,
    or back before, whole runs of equal values until the rounded difference
    itself decides.  All rows of all columns are searched in one call:
    complex keys c + 1j*x sort by column, then by value.
    """
    d, m = xs.shape
    flat = xs.ravel()
    keys = _column_keys(xs)
    start = np.repeat(np.arange(d) * m, m)
    vi = np.repeat(v, m)
    end = np.searchsorted(keys, _column_keys(xs + v[:, None]), "left")
    every = np.arange(d * m)
    out = []
    for op in (np.less, np.less_equal):
        rows = slice(None)
        while True:
            e, s, x0, vv = end[rows], start[rows], flat[rows], vi[rows]
            back = every[rows][(e > s) & ~op(flat[np.maximum(e - 1, s)] - x0, vv)]
            fwd = every[rows][(e < s + m) & op(flat[np.minimum(e, s + m - 1)] - x0, vv)]
            if not (back.size or fwd.size):
                break
            end[back] = np.searchsorted(keys, keys[end[back] - 1], "left")
            end[fwd] = np.searchsorted(keys, keys[end[fwd]], "right")
            rows = np.concatenate([back, fwd])
        out.append(np.maximum(end.reshape(d, m) - start.reshape(d, m), np.arange(1, m + 1)))
    return tuple(out)
