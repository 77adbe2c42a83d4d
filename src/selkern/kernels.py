"""Positive-definite kernels on indexed rows, and median-heuristic bandwidth selection."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def pair_kernel(spec: KernelSpec | list[KernelSpec], A: np.ndarray, i, B: np.ndarray, j) -> np.ndarray:
    """K(A[i], B[j]) for index expressions i and j whose row blocks broadcast.

    One spec works on whole rows, whose last axis `_squared_distances` sums in
    column order; a list of d specs of one family works per column, spec f on
    column f of the last axis, which stays.  Squares may overflow to inf,
    where the kernel takes its limit.  The kernel is evaluated in place in the
    one array that holds the squares, so a call holds one result-sized array."""
    specs = [spec] if isinstance(spec, KernelSpec) else spec
    if len({s.family for s in specs}) != 1:
        raise ValueError("kernel specs must share one family")
    with np.errstate(over="ignore"):
        if isinstance(spec, KernelSpec):
            K = _squared_distances(A[i], B[j])[..., None]
        elif len(specs) != np.shape(A)[-1]:
            raise DataShapeError("need one kernel spec per feature")
        else:
            K = A[i] - B[j]
            np.square(K, out=K)
        if specs[0].family == GAUSSIAN:
            bandwidth = np.array([s.bandwidth for s in specs])
            # An infinite bandwidth gives the kernel's limit 1, also where the square overflows.
            K[..., np.isinf(bandwidth)] = 0.0
            np.negative(K, out=K)
            K /= 2.0 * bandwidth ** 2
            np.exp(K, out=K)
        else:
            K += np.array([s.offset for s in specs]) ** 2
            K **= -0.5
    return K[..., 0] if isinstance(spec, KernelSpec) else K


# Kernel values per chunk of tuples or blocks in the h-row builders, so that
# their working memory is O(chunk), not O(l d); 2^19 (4 MB per array) keeps
# 2000 pairs, 400 quadruples or 100 blocks of 8 at d = 50 in one chunk.
_CHUNK_VALUES = 1 << 19


def _chunked_rows(rows, count: int, values: int) -> np.ndarray:
    """rows(slice) over ``count`` items, a chunk of about `_CHUNK_VALUES` /
    ``values`` items at a time, into one array.  Each row must depend on its
    own item alone, so the chunks do not change a bit of it."""
    step = max(1, _CHUNK_VALUES // values)
    first = rows(slice(0, step))
    if count <= step:
        return first
    out = np.empty((count,) + first.shape[1:])
    out[:step] = first
    for c in range(step, count, step):
        out[c:c + step] = rows(slice(c, c + step))
    return out


def _squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows (last axis) of A and B,
    broadcast against each other.  Column terms are added one at a time in
    column order, as scipy's "sqeuclidean" adds them, so the sums are the same
    bit for bit.  As there, squares may overflow to inf and inf - inf gives
    NaN, without a warning."""
    out = np.zeros(np.broadcast_shapes(A.shape[:-1], B.shape[:-1]) + (1,))
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(A.shape[-1]):
            # Slices keep single rows arrays: a numpy scalar's ** 2 calls pow, which may round differently.
            out += (A[..., c:c + 1] - B[..., c:c + 1]) ** 2
    return out[..., 0]


def median_heuristic(pooled: np.ndarray) -> float:
    """Bandwidth sigma with sigma^2 = median of squared pairwise distances / 2.

    Zero distances from duplicated rows enter the median.  If duplicates are
    so frequent that the median itself is zero, the median of the positive
    squared distances is used instead, so the returned bandwidth is always
    positive; input with no positive squared distance (all rows identical,
    or differences whose squares underflow) or whose median squared distance
    overflows is an error.  One-column input takes the exact sort-and-select
    path of `median_bandwidths`.
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
    else:
        # Each row against the later ones: the n(n-1)/2 pair values, in one buffer.
        n = pooled.shape[0]
        sq, start = np.empty(n * (n - 1) // 2), 0
        for i in range(n - 1):
            sq[start:start + n - 1 - i] = _squared_distances(pooled[i], pooled[i + 1:])
            start += n - 1 - i
        # Two middle values may sum past the largest double: the width is inf.
        with np.errstate(over="ignore"):
            # Partitions sq in place; the fall-back below sees the same values.
            med = float(np.median(sq, overwrite_input=True))
            if med <= 0.0:
                positive = sq[sq > 0]
                if positive.size == 0:
                    raise DegenerateSampleError("all rows identical: median distance is 0")
                med = float(np.median(positive))
        width = float(np.sqrt(med / 2.0))
    if np.isinf(width):
        raise DegenerateSampleError("median squared distance overflows")
    return width


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
# Most pairs drawn per column and round to bracket the target ranks, and the
# band size per column at which the band is gathered and selected in; a
# column of m values gathers at most max(16 m, 2048) of them, so that a block
# of short columns is counted down rather than gathered whole.
_BRACKET_DRAWS = 4096
_BAND_LIMIT = 32768
# Values per block of columns (m and the first round's draws per column), so
# that the working arrays stay in cache.
_BLOCK_VALUES = 1 << 16
# Bracket half-width in sampling standard deviations of the target quantile.
_BRACKET_Z = 2.0
# Relative widening of histogram brackets, for rounding in the bin of a value.
_BIN_MARGIN = 1e-9
# The draws only steer the search; every result is exact whatever they are.
_BRACKET_SEED = 0x5E1EC7
# Bracketing rounds before the search gives up; 2 to 4 occur in practice, so
# reaching the cap means biased draws or counts, not bad luck.
_MAX_ROUNDS = 64


def median_bandwidths(pooled: np.ndarray) -> np.ndarray:
    """Median-heuristic bandwidths of every column of an (m, d) array at once.

    Entry c equals ``median_heuristic(pooled[:, [c]])`` bit for bit, with the
    fall-back to the positive squared differences; a flat column (see
    `flat_columns`) gets NaN and one whose median square overflows inf.  The
    differences fl(x_j - x_i) of a sorted column are monotone in j, and so are
    their squares, so the middle ones are selected by counting (Johnson &
    Mizoguchi 1978; Croux & Rousseeuw 1992), never forming all m(m-1)/2 pairs.
    """
    pooled = np.asarray(pooled, dtype=float)
    if pooled.ndim != 2 or pooled.shape[0] < 2:
        raise DataShapeError("median bandwidths need an (m, d) array with m >= 2")
    if not np.isfinite(pooled).all():
        raise ValueError("data contain NaN or infinite values")
    m = pooled.shape[0]
    flat = flat_columns(pooled)
    xs = np.sort(pooled[:, ~flat].T, axis=1)
    block = max(1, _BLOCK_VALUES // (m + min(_BRACKET_DRAWS, int((m * m / 2) ** (2 / 3)))))
    rng = np.random.default_rng(_BRACKET_SEED)
    # Differences and squares may overflow to inf, as they do in `pdist`.
    with np.errstate(over="ignore"):
        med = np.concatenate([_median_square(_Columns(xs[c:c + block]), 0, rng)
                              for c in range(0, len(xs), block)] + [[]])
        zero = np.flatnonzero(med <= 0.0)
        if zero.size:  # rank the positive squared differences past the z that round to 0
            cz = _Columns(xs[zero])
            med[zero] = _median_square(cz, (cz.ends(np.full(zero.size, _SQUARE_UNDERFLOW))[1] - cz.first).sum(1), rng)
    widths = np.full(pooled.shape[1], np.nan)
    widths[~flat] = np.sqrt(med / 2.0)
    return widths


def _median_square(cols: "_Columns", skip: int | np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Each column's median squared difference past its ``skip`` smallest, as `np.median` has it."""
    skip = np.broadcast_to(skip, cols.d)
    n = cols.m * (cols.m - 1) // 2 - skip
    sq = _differences_at_ranks(cols, np.stack([(n - 1) // 2, n // 2], 1) + skip[:, None], rng) ** 2
    return np.where(n % 2 == 1, sq[:, 0], (sq[:, 0] + sq[:, 1]) / 2.0)


def _differences_at_ranks(cols: "_Columns", ranks: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(d, 2) values at the 0-based ``ranks`` (equal or adjacent) among the
    sorted differences fl(xs[c, j] - xs[c, i]), i < j, of each column c.

    The candidates of column c form a band, the open value interval between
    bounds[c]: row i holds it at j in [lo_end[c, i], hi_end[c, i]), and below[c]
    differences precede it.  Each round brackets the open ranks and counts
    exactly where the two bracket values fall: a rank lands on one, or the
    band narrows to the interval between them.  The first round takes a
    column's brackets from its histogram (`_lag_brackets`) where they are
    expected to leave a smaller band than draws would; otherwise the brackets
    are quantiles of differences drawn from the band.  A band of at most
    `_BAND_LIMIT`, and of at most max(16 m, 2048), is gathered and
    partitioned.  More than `_MAX_ROUNDS` rounds raise `RuntimeError`.
    """
    d, m = cols.d, cols.m
    limit = min(_BAND_LIMIT, max(16 * m, 2048))
    bounds, below, found = np.tile([-np.inf, np.inf], (d, 1)), np.zeros(d, dtype=np.int64), np.full((d, 2), np.nan)
    lo_end, hi_end = np.tile(cols.first, (d, 1)), np.full((d, m), m)
    for rounds in range(_MAX_ROUNDS + 1):
        size = hi_end.sum(axis=1) - lo_end.sum(axis=1)
        act = np.flatnonzero(np.isnan(found).any(axis=1) & (size > limit))
        if not act.size:
            break
        if rounds == _MAX_ROUNDS:
            raise RuntimeError(f"difference ranks not bracketed after {_MAX_ROUNDS} rounds")
        ca, k, open_ = cols.subset(act), ranks[act], np.isnan(found[act])
        # size**(2/3) balances draws and band left; from 16 on, one bracket is always drawn.
        draws = min(_BRACKET_DRAWS, max(16, int(size[act].max() ** (2 / 3))))
        # The first round takes a column's histogram brackets where they leave
        # no more than the band that the draws are expected to leave.
        v = (_lag_brackets(ca, k, size[act] * (_BRACKET_Z * np.sqrt(draws) + 2.0) / draws) if rounds == 0
             else np.full((act.size, 2), np.nan))
        drawn = np.flatnonzero(np.isnan(v[:, 0]))
        if drawn.size:
            at, kd = act[drawn], k[drawn]
            sample = np.sort(ca.subset(drawn).band(lo_end[at], hi_end[at], draws, rng), axis=1)
            # Brackets: sample quantiles likely below and above the open ranks, else the bounds.
            q = (np.where(open_[drawn], kd, kd[:, ::-1]) - below[at, None] + 0.5) / size[at, None]
            pos = q * draws + [-1, 1] * (_BRACKET_Z * np.sqrt(draws * q * (1.0 - q)) + 1.0)
            pos = np.stack([np.floor(pos[:, 0]), np.ceil(pos[:, 1])], 1).astype(np.intp)
            v[drawn] = np.where((pos >= 0) & (pos < draws),
                                np.take_along_axis(sample, np.clip(pos, 0, draws - 1), 1), bounds[at])
        lt_low, le_low = ca.ends(v[:, 0])
        lt_high, le_high = ca.ends(v[:, 1])
        a, b, c, e = (E.sum(axis=1)[:, None] - ca.first.sum() for E in (lt_low, le_low, lt_high, le_high))
        at_low, at_high = open_ & (a <= k) & (k < b), open_ & (c <= k) & (k < e)
        inside = (b <= k) & (k < c)
        found[act] = np.where(at_low, v[:, :1], np.where(at_high, v[:, 1:], found[act]))
        # A rank outside [a, e) means the draws missed it: keep the band and draw again.
        held = (~open_ | at_low | at_high | inside).all(axis=1)
        upd = act[held]
        bounds[upd], below[upd] = v[held], b[held, 0]
        lo_end[upd], hi_end[upd] = le_low[held], lt_high[held]
    # Gather the remaining bands and select in each from its lower open rank.
    open_ = np.isnan(found)
    left = np.flatnonzero(open_.any(axis=1))
    k = np.where(open_[left], ranks[left], ranks[left, ::-1]) - below[left, None]
    bands = np.split(cols.subset(left).band(lo_end[left], hi_end[left]), np.cumsum(size[left])[:-1])
    for row, values, (r, r1) in zip(left, bands, k):
        values = np.partition(values, r)
        found[row] = np.where(open_[row], (values[r], values[r + 1:].min() if r1 > r else values[r]), found[row])
    return found


def _lag_brackets(cols: "_Columns", ranks: np.ndarray, budget: np.ndarray) -> np.ndarray:
    """(d, 2) brackets of the (equal or adjacent) difference ``ranks`` of each
    column from an equal-width histogram of it, NaN where they may leave a band
    larger than ``budget``.

    With bins of width h, a pair whose bins lie L apart differs by more than
    (L - 1)h and by less than (L + 1)h, so the pairs counted at each lag place
    every rank between two multiples of h.  Bin rounding is covered by
    `_BIN_MARGIN`; a bracket that still misses a rank costs a round, never a
    wrong value.  By Cauchy-Schwarz no lag holds more pairs than the sum of
    the squared bin counts, so only columns where three times that sum fits
    the budget, whose band over three lags must fit, go on to the transform:
    heavy ties and far outliers, which crowd the values into few bins, do not.
    """
    bins = 1 << (cols.m - 1).bit_length()
    span = cols.xs[:, -1] - cols.xs[:, 0]
    with np.errstate(divide="ignore", over="ignore"):
        scale = bins / span
    # Spans that overflow, or whose bins would, get no brackets.
    ok = np.flatnonzero(np.isfinite(scale) & (scale > 0))
    at = np.minimum(((cols.xs[ok] - cols.xs[ok, :1]) * scale[ok, None]).astype(np.intp), bins - 1)
    counts = np.bincount((at + np.arange(0, ok.size * bins, bins)[:, None]).ravel(), minlength=ok.size * bins)
    counts = counts.reshape(ok.size, bins)
    fits = 3 * (counts * counts).sum(axis=1) <= budget[ok]
    ok, counts = ok[fits], counts[fits]
    v = np.full((cols.d, 2), np.nan)
    if not ok.size:
        return v
    below = np.cumsum(_lag_counts(counts), axis=1)  # pairs at lags up to L
    # The first lag whose pairs reach past each rank, and the pairs that may
    # fall between the brackets: those at lags hit[0] - 1 to hit[1] + 1.
    hit = np.stack([(below <= r[:, None]).sum(axis=1) for r in ranks[ok].T], 1)
    ends = np.take_along_axis(below, np.clip(hit + [-2, 1], 0, bins - 1), 1)
    take = ends[:, 1] - ends[:, 0] * (hit[:, 0] >= 2) <= budget[ok]
    h = (span[ok] / bins)[:, None]
    brackets = np.stack([(hit[:, 0] - 1) * (1.0 - _BIN_MARGIN), (hit[:, 1] + 1) * (1.0 + _BIN_MARGIN)], 1) * h
    v[ok[take]] = brackets[take]
    return v


def _lag_counts(counts: np.ndarray) -> np.ndarray:
    """Entry (c, L) of the result counts the pairs i < j of items in row c of
    the (d, B) bin ``counts`` whose bins lie L apart: the autocorrelation of the
    counts, by one zero-padded real transform, rounded to integers."""
    bins = counts.shape[1]
    f = np.fft.rfft(counts, 2 * bins)
    lags = np.rint(np.fft.irfft(f.real ** 2 + f.imag ** 2, 2 * bins)[:, :bins]).astype(np.int64)
    lags[:, 0] = (lags[:, 0] - counts.sum(axis=1)) // 2  # each item paired with itself, and each pair twice
    return lags


class _Columns:
    """Sorted columns as rows, with each position's run of equal values: its first index, one past its last."""

    def __init__(self, xs: np.ndarray):
        self.xs = np.ascontiguousarray(xs)
        self.d, self.m = d, m = self.xs.shape
        self.flat, self.first, self.base = self.xs.ravel(), np.arange(1, m + 1), np.arange(0, d * m, m)[:, None]
        new = np.ones((d, m + 1), dtype=bool)
        new[:, 1:-1] = self.xs[:, 1:] != self.xs[:, :-1]
        at = np.arange(m + 1)
        self.runs = (np.maximum.accumulate(np.where(new[:, :-1], at[:-1], 0), axis=1).ravel(),
                     np.minimum.accumulate(np.where(new[:, :0:-1], at[:0:-1], m), axis=1)[:, ::-1].ravel())

    def subset(self, rows: np.ndarray) -> "_Columns":
        return self if rows.size == self.d else _Columns(self.xs[rows])

    def band(self, lo_end: np.ndarray, hi_end: np.ndarray, draws: int | None = None,
             rng: np.random.Generator | None = None) -> np.ndarray:
        """The differences fl(xs[c, j] - xs[c, i]), lo_end[c, i] <= j < hi_end[c, i], row
        by row: all, or ``draws`` per column, each member equally likely.  Evenly
        spaced positions with a random phase share the draws out among the rows
        without a search; each row places its own at random, since rows about as
        wide as the spacing would otherwise all be drawn at one offset."""
        width = hi_end - lo_end
        start = (lo_end + self.base).ravel()
        if draws is None:
            count = width.ravel()
            at = np.repeat(start - np.cumsum(count) + count, count)
            at += np.arange(at.size)
        else:
            count = np.cumsum(width, axis=1) * (draws / width.sum(axis=1, keepdims=True))
            count = np.minimum((count + rng.random((self.d, 1))).astype(np.intp), draws)
            count[:, -1] = draws
            count = np.diff(count, axis=1, prepend=0).ravel()
            # u < 1 - 2**-53, so fl(u * width) < width.
            at = (rng.random(draws * self.d) * np.repeat(width.ravel(), count)).astype(np.intp) + np.repeat(start, count)
        values = self.flat[at]
        values -= np.repeat(self.flat, count)
        return values if draws is None else values.reshape(self.d, draws)

    def ends(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two (d, m) arrays whose entry (c, i) is the first j > i at which
        fl(xs[c, j] - xs[c, i]) < v[c], respectively <= v[c], fails (m if none).
        A float `searchsorted` of xs[c] + v[c] per column is the first guess, one
        pass checks every row, and `_settle` moves the flagged ones.  Every
        difference before the first end is < v, so the second moves on from it."""
        lt = np.maximum(np.array([x.searchsorted(q) for x, q in zip(self.xs, self.xs + v[:, None])]), self.first)
        vv = v[:, None]
        ahead = self.flat[np.minimum(lt, self.m - 1) + self.base] - self.xs  # NaN past the last row
        ahead[lt == self.m] = np.nan
        behind = self.flat[lt + (self.base - 1)] - self.xs
        self._settle(lt, v, np.less, np.greater_equal, ahead,
                     np.flatnonzero((ahead < vv) | ((behind >= vv) & (lt > self.first))))
        le = lt.copy()
        self._settle(le, v, np.less_equal, None, ahead, np.flatnonzero(ahead <= vv))
        return lt, le

    def _settle(self, end, v, holds, fails, ahead, rows) -> None:
        """Move the ends at the flat ``rows`` in place, over runs of equal values, until
        holds(difference, v) fails at the end and holds before it; ``fails`` negates
        holds, or is None if no end is too far.  ``ahead`` tracks the end's difference."""
        m, end, ahead = self.m, end.reshape(-1), ahead.reshape(-1)
        while rows.size:
            col0, x0, vv, e = rows - rows % m, self.flat[rows], v[rows // m], end[rows]
            back = fails(self.flat[col0 + e - 1] - x0, vv) & (col0 + e > rows + 1) if fails else False
            fwd = holds(ahead[rows], vv)
            e = np.where(back, np.maximum(self.runs[0][col0 + e - 1], rows - col0 + 1),
                         np.where(fwd, self.runs[1][col0 + np.minimum(e, m - 1)], e))
            end[rows] = e
            ahead[rows] = np.where(e < m, self.flat[col0 + np.minimum(e, m - 1)] - x0, np.nan)
            rows = rows[back | fwd]
