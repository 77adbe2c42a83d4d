import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist, pdist

from oracles import gram_matrix, kernel_eval, pair_kernel_out_of_place
from selkern import (
    DataShapeError,
    DegenerateSampleError,
    JointSample,
    KernelSpec,
    RunConfig,
    derive_rng,
    median_heuristic,
    mmd_stat,
    sample_pair_design,
    sample_quad_design,
)
from selkern import kernels
from selkern.hsic import _block_hsic, _quad_h_matrix
from selkern.kernels import _SQUARE_UNDERFLOW, _squared_distances, median_bandwidths, pair_kernel
from selkern.mmd import _pair_h
from selkern.selective import _feature_specs


def test_gaussian_same_point_is_one():
    spec = KernelSpec(bandwidth=0.37)
    x = np.array([1.0, -2.0, 0.5])
    assert kernel_eval(spec, x, x) == 1.0


def test_gaussian_unit_bandwidth_scalar():
    spec = KernelSpec(bandwidth=1.0)
    assert kernel_eval(spec, 0.0, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-15)


def test_imq_same_point():
    spec = KernelSpec(family="imq", offset=1.0)
    assert kernel_eval(spec, 1.5, 1.5) == 1.0


def test_imq_formula():
    spec = KernelSpec(family="imq", offset=2.0)
    # (offset^2 + ||x-y||^2)^(-1/2) with squared distance 9
    assert kernel_eval(spec, 0.0, 3.0) == pytest.approx((4.0 + 9.0) ** -0.5, abs=1e-15)


def test_dimension_mismatch():
    spec = KernelSpec()
    with pytest.raises(DataShapeError):
        kernel_eval(spec, np.zeros(2), np.zeros(3))
    with pytest.raises(DataShapeError):
        gram_matrix(spec, np.zeros((3, 2)), np.zeros((3, 3)))


def test_invalid_spec_parameters():
    with pytest.raises(ValueError):
        KernelSpec(bandwidth=0.0)
    with pytest.raises(ValueError):
        KernelSpec(family="imq", offset=-1.0)
    with pytest.raises(ValueError):
        KernelSpec(family="triangle")


def test_symmetry_exact():
    spec_g = KernelSpec(bandwidth=0.8)
    spec_i = KernelSpec(family="imq", offset=0.5)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        assert kernel_eval(spec_g, x, y) == kernel_eval(spec_g, y, x)
        assert kernel_eval(spec_i, x, y) == kernel_eval(spec_i, y, x)


def test_boundedness():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((200, 4))
    g = gram_matrix(KernelSpec(bandwidth=0.5), pts, pts)
    assert (g > 0).all() and (g <= 1.0).all()
    offset = 0.7
    q = gram_matrix(KernelSpec(family="imq", offset=offset), pts, pts)
    assert (q > 0).all() and (q <= 1.0 / offset + 1e-15).all()


def test_mixed_family_specs_rejected():
    rng = np.random.default_rng(29)
    X = rng.standard_normal((12, 2))
    Y = rng.standard_normal((12, 2))
    Z = JointSample(X, Y[:, 0])
    specs = [KernelSpec(bandwidth=1.0), KernelSpec(family="imq", offset=1.0)]
    with pytest.raises(ValueError, match="one family"):
        _pair_h(X, Y, *sample_pair_design(12, 12, derive_rng(0)).tuples.T, specs)
    with pytest.raises(ValueError, match="one family"):
        _quad_h_matrix(Z, specs, KernelSpec(), sample_quad_design(12, 12, derive_rng(0)))
    with pytest.raises(ValueError, match="one family"):
        _block_hsic(Z, specs, KernelSpec(), 4)


def test_gram_single_row():
    g = gram_matrix(KernelSpec(), np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
    assert g.shape == (1, 1) and g[0, 0] == 1.0


def test_gram_symmetric_unit_diagonal():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((20, 3))
    g = gram_matrix(KernelSpec(bandwidth=1.3), A, A)
    assert np.array_equal(g, g.T)
    assert np.array_equal(np.diag(g), np.ones(20))


def test_gram_matches_entrywise_loop():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 1))
    B = rng.standard_normal((4, 1))
    for spec in (KernelSpec(bandwidth=0.9), KernelSpec(family="imq", offset=1.2)):
        g = gram_matrix(spec, A, B)
        for i in range(3):
            for j in range(4):
                assert g[i, j] == pytest.approx(kernel_eval(spec, A[i], B[j]), abs=1e-12)


def test_gram_positive_semidefinite():
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((60, 5))
    for spec in (KernelSpec(bandwidth=1.0), KernelSpec(family="imq", offset=1.0)):
        g = gram_matrix(spec, pts, pts)
        eigenvalues = np.linalg.eigvalsh(g)
        assert eigenvalues.min() >= -1e-8


def test_median_heuristic_three_points():
    # Pairs of rows {0, 1, 3}: squared distances 1, 9, 4 -> median 4 -> sigma = sqrt(2).
    sigma = median_heuristic(np.array([[0.0], [1.0], [3.0]]))
    assert sigma == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_median_heuristic_single_pair():
    sigma = median_heuristic(np.array([[0.0], [2.0]]))
    assert sigma == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_median_heuristic_counts_zero_distances():
    # Rows {0, 0, 2}: squared distances 0, 4, 4 -> median 4 -> sigma = sqrt(2).
    sigma = median_heuristic(np.array([[0.0], [0.0], [2.0]]))
    assert sigma == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_median_heuristic_zero_median_falls_back_to_positive():
    # Rows {0,0,0,0,1}: six zero distances out of ten -> median 0; fall back to
    # the median of the positive squared distances (1) -> sigma = sqrt(1/2).
    sigma = median_heuristic(np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
    assert sigma == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_median_heuristic_degenerate():
    with pytest.raises(DegenerateSampleError):
        median_heuristic(np.full((5, 2), 3.25))


def test_median_heuristic_needs_two_rows():
    with pytest.raises(DataShapeError):
        median_heuristic(np.array([[1.0]]))


@pytest.mark.parametrize("call, error, message", [
    (lambda: median_heuristic(np.full((5, 1), 2.5)), DegenerateSampleError, "no positive squared distance between rows"),
    (lambda: median_heuristic(np.array([[0.0], [np.nan], [1.0]])), ValueError, "data contain NaN or infinite values"),
    (lambda: mmd_stat(np.empty((0, 3)), np.empty((0, 3)), RunConfig(seed=1)), DataShapeError,
     "median bandwidths need an (m, d) array with m >= 2"),
], ids=["constant-column", "nan-column", "empty-sample"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_median_heuristic_permutation_invariant():
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((40, 2))
    sigma = median_heuristic(pts)
    perm = rng.permutation(40)
    assert median_heuristic(pts[perm]) == sigma


def test_multi_column_median_heuristic_holds_one_buffer_of_pair_values():
    # The n(n-1)/2 squared distances take 9 MB at n = 1500; they are written
    # into one buffer and its median is taken in place, so no copy of them is made.
    n = 1500
    pooled = np.random.default_rng(18).standard_normal((n, 2))
    tracemalloc.start()
    try:
        median_heuristic(pooled)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * (n * (n - 1) // 2) * 8, peak


def _pdist_median_width(col):
    """Oracle: the median heuristic of one column, or of the rows of a 2-D
    array, from all of its pairs, NaN when no squared distance is positive."""
    col = np.asarray(col, dtype=float)
    sq = pdist(col.reshape(len(col), -1), "sqeuclidean")
    med = np.median(sq)
    if med <= 0:
        sq = sq[sq > 0]
        if sq.size == 0:
            return np.nan
        med = np.median(sq)
    return np.sqrt(med / 2.0)


def _coordinates(draw, shape):
    """Values of magnitude 10^lo to 10^hi, from where squares underflow to
    where sums of squares overflow to inf, with signed zeros and +-1e154."""
    lo = draw(st.sampled_from([-160, -155, -10, 0, 150]) | st.integers(-160, 153))
    hi = min(153, lo + draw(st.sampled_from([0, 3, 30, 313])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    x = rng.uniform(-9.9, 9.9, shape) * 10.0 ** rng.integers(lo, hi, shape, endpoint=True)
    special = rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    x[special] = rng.choice([0.0, -0.0, 0.0, -0.0, 1e154, -1e154], special.sum())
    return x


@st.composite
def _point_sets(draw):
    # numpy's pairwise summation changes at 8 terms; the distances must not.
    p = draw(st.sampled_from([1, 2, 7, 8, 9, 40]))
    return _coordinates(draw, (draw(st.integers(1, 12)), p)), _coordinates(draw, (draw(st.integers(1, 12)), p))


@settings(max_examples=200, deadline=None)
@given(_point_sets())
def test_squared_distances_match_scipy_bit_for_bit(points):
    A, B = points
    got = _squared_distances(A[:, None], B[None])
    assert got.view(np.int64).tolist() == cdist(A, B, "sqeuclidean").view(np.int64).tolist()
    within = np.concatenate([_squared_distances(A[i], A[i + 1:]) for i in range(len(A) - 1)] + [[]])
    assert within.view(np.int64).tolist() == pdist(A, "sqeuclidean").view(np.int64).tolist()


@st.composite
def _rows_with_duplicates(draw):
    # Rows drawn from a few distinct ones, so zero distances are common and
    # often make the median 0 (the fall-back to the positive distances).
    p = draw(st.sampled_from([2, 3, 8, 9, 40]))
    distinct = _coordinates(draw, (draw(st.integers(1, 6)), p))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2, max_size=30))
    return distinct[picks]


@settings(max_examples=200, deadline=None)
@given(_rows_with_duplicates())
def test_multi_column_median_heuristic_matches_pdist(pooled):
    with np.errstate(over="ignore"):
        expected = _pdist_median_width(pooled)
    if np.isnan(expected):
        with pytest.raises(DegenerateSampleError, match="all rows identical"):
            median_heuristic(pooled)
    elif np.isinf(expected):
        with pytest.raises(DegenerateSampleError, match="overflows"):
            median_heuristic(pooled)
    else:
        assert median_heuristic(pooled) == expected


def test_univariate_specs_pool_columns():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((15, 2))
    Y = rng.standard_normal((15, 2)) + 1.0
    specs, constant = _feature_specs(RunConfig(seed=0), X, Y)
    assert len(specs) == 2 and not constant.any()
    for i, spec in enumerate(specs):
        pooled = np.concatenate([X[:, i], Y[:, i]])
        assert spec.bandwidth == _pdist_median_width(pooled)


_VALUE_POOLS = {
    "floats": st.floats(-1e3, 1e3),
    "grid": st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 2.0]),
    "binary": st.sampled_from([0.0, 1.0]),
    # 1.5e-162 squares to 0 and 1.6e-162 does not.
    "underflow": st.sampled_from([0.0, 1e-170, 3e-170, 1.5e-162, 1.6e-162, 1.0]),
    "range": st.floats(math.exp(-40), math.exp(40)),
}


@st.composite
def _bandwidth_columns(draw):
    m = draw(st.integers(2, 300))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        col = draw(arrays(np.float64, m, elements=_VALUE_POOLS[draw(st.sampled_from(sorted(_VALUE_POOLS)))]))
        # A long run of one value; at 0.8 of the rows the median is 0, at 1.0 the column is flat.
        run = int(draw(st.sampled_from([0.0, 0.3, 0.8, 1.0])) * m)
        start = draw(st.integers(0, m - run))
        col[start:start + run] = col[start] if run else 0.0
        cols.append(col)
    return np.column_stack(cols)


@settings(max_examples=150, deadline=None)
@given(_bandwidth_columns())
def test_median_bandwidths_match_pdist(pooled):
    expected = [_pdist_median_width(col) for col in pooled.T]
    assert np.array_equal(median_bandwidths(pooled), expected, equal_nan=True)
    # With a small band limit and draw count, these sizes run through several
    # counting rounds, their fix-ups and redraws, not only the final gather.
    with mock.patch.multiple(kernels, _BAND_LIMIT=64, _BRACKET_DRAWS=64):
        assert np.array_equal(median_bandwidths(pooled), expected, equal_nan=True)


def test_median_bandwidths_match_pdist_large_column():
    rng = np.random.default_rng(31)
    col = rng.standard_normal(4000)
    pooled = np.column_stack([
        col,
        np.round(col, 1),
        rng.choice([0.0, 1.0], 4000),
        rng.choice([-1.5, -0.0, 0.0, 0.25, 1.0, 2.0], 4000),
        rng.choice([0.0, 1e-170, 3e-170, 1.5e-162, 1.6e-162, 1.0], 4000),
        np.exp(rng.uniform(-40.0, 40.0, 4000)),
        # Differences of 1e308 and 2e308 square to inf: the width is inf.
        rng.choice([-1e308, 0.0, 1e308], 4000),
    ])
    assert np.array_equal(median_bandwidths(pooled), [_pdist_median_width(c) for c in pooled.T])


def _shaped_columns(m):
    """Columns on both sides of the histogram bracket rule: smooth ones, heavy
    tails, a far outlier, and heavy ties."""
    rng = np.random.default_rng(m)
    z = rng.standard_normal(m)
    outlier = rng.standard_normal(m)
    outlier[m // 3] = 1e12
    return np.column_stack([
        z,
        rng.standard_cauchy(m),
        np.exp(3.0 * rng.standard_normal(m)),
        1e9 + 1e-6 * rng.standard_normal(m),
        rng.choice([0.0, 1.0], m),
        np.round(z, 1),
        outlier,
    ])


@pytest.mark.parametrize("m", [400, 801, 4000])
def test_median_bandwidths_match_pdist_on_shaped_columns(m):
    taken = []
    lag_brackets = kernels._lag_brackets

    def recording(cols, ranks, budget):
        v = lag_brackets(cols, ranks, budget)
        taken.append((~np.isnan(v[:, 0])).tolist())
        return v

    pooled = _shaped_columns(m)
    with mock.patch.object(kernels, "_lag_brackets", recording):
        assert np.array_equal(median_bandwidths(pooled), [_pdist_median_width(c) for c in pooled.T])
    # Only the Gaussian column takes histogram brackets.
    assert taken[0] == [True] + [False] * 6


@pytest.mark.parametrize("m", [100, 160, 256])
def test_short_columns_match_pdist_in_bounded_memory(m):
    # Up to m = 256 a column has at most 32 640 pairs.  Gathering every pair of
    # a block of 50 such columns at once took 6.3 MB at m = 100 and 40 MB at
    # m = 256; counting rounds first keep each column's gather near 16 m pairs.
    pooled = np.column_stack([_shaped_columns(m), np.random.default_rng(m + 1).standard_normal((m, 43))])
    tracemalloc.start()
    try:
        widths = median_bandwidths(pooled)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(widths, [_pdist_median_width(c) for c in pooled.T])
    assert peak < 4e6, peak


def test_median_bandwidths_hold_one_sorted_copy_of_the_columns():
    # At (40 000, 50) the data take 16 MB and each block's working arrays far
    # less, so the peak is the one copy of the columns that is sorted in place.
    pooled = np.random.default_rng(44).standard_normal((40_000, 50))
    tracemalloc.start()
    try:
        median_bandwidths(pooled)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * pooled.nbytes, peak / pooled.nbytes


def test_lag_counts_match_pair_lags():
    # Bin counts in runs of equal values (empty bins among them), for up to
    # about 2000 items, and all items in one bin.
    rng = np.random.default_rng(41)
    for bins in [2, 4, 32, 256, 1024, 2048]:
        counts = np.stack([np.repeat(rng.integers(0, 3, bins), rng.integers(1, 40, bins))[:bins]
                           for _ in range(3)] + [np.eye(1, bins, bins // 2, dtype=np.intp)[0] * 50])
        for row, got in zip(counts, kernels._lag_counts(counts)):
            items = np.repeat(np.arange(bins), row)
            i, j = np.triu_indices(items.size, 1)
            assert got.tolist() == np.bincount(items[j] - items[i], minlength=bins).tolist()


def test_histogram_brackets_count_each_column_twice():
    # Each smooth column takes its histogram brackets, one counting round
    # (two `ends` per column) leaves a band small enough to gather, and no
    # random draw is needed.
    counted = []
    ends = kernels._Columns.ends

    def counting(self, v):
        counted.append(self.d)
        return ends(self, v)

    pooled = np.random.default_rng(43).standard_normal((4000, 8))
    with mock.patch.object(kernels._Columns, "ends", counting):
        median_bandwidths(pooled)
    assert sum(counted) == 2 * 8


def test_median_bandwidths_round_cap_raises():
    # Counts that place every rank outside both brackets never narrow the
    # band, so the search would redraw forever; the round cap turns that
    # into an error.
    def no_bracket(self, v):
        ends = np.tile(self.first, (self.d, 1))
        return ends, ends.copy()

    pooled = np.random.default_rng(5).standard_normal((400, 2))
    with mock.patch.object(kernels._Columns, "ends", no_bracket), \
            pytest.raises(RuntimeError, match="not bracketed"):
        median_bandwidths(pooled)


def test_square_underflow_threshold_is_the_largest_zero_square():
    assert _SQUARE_UNDERFLOW ** 2 == 0.0
    assert np.nextafter(_SQUARE_UNDERFLOW, 1.0) ** 2 > 0.0


@st.composite
def _per_column_case(draw):
    d = draw(st.integers(1, 6))
    A = _coordinates(draw, (draw(st.integers(1, 8)), d))
    B = _coordinates(draw, (draw(st.integers(1, 8)), d))
    if draw(st.booleans()):
        params = draw(st.lists(st.floats(0.01, 100.0) | st.just(np.inf), min_size=d, max_size=d))
        specs = [KernelSpec(bandwidth=w) for w in params]
    else:
        specs = [KernelSpec("imq", offset=o) for o in draw(st.lists(st.floats(0.01, 100.0), min_size=d, max_size=d))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    # Index arrays of shapes (r, 1) and (s,) broadcast to (r, s).
    i = rng.integers(0, len(A), (draw(st.integers(1, 5)), 1))
    j = rng.integers(0, len(B), draw(st.integers(1, 5)))
    return specs, A, i, B, j


@settings(max_examples=200, deadline=None)
@given(_per_column_case())
def test_pair_kernel_per_column_matches_single_spec(case):
    specs, A, i, B, j = case
    K = pair_kernel(specs, A, i, B, j)
    assert K.shape == np.broadcast_shapes(i.shape, j.shape) + (len(specs),)
    for f, spec in enumerate(specs):
        alone = pair_kernel(spec, A[:, [f]], i, B[:, [f]], j)
        assert K[..., f].view(np.int64).tolist() == alone.view(np.int64).tolist()


@st.composite
def _kernel_case(draw):
    d = draw(st.sampled_from([1, 2, 7, 8, 9]))
    A = _coordinates(draw, (draw(st.integers(1, 8)), d))
    B = _coordinates(draw, (draw(st.integers(1, 8)), d))
    if draw(st.booleans()):
        make = lambda w: KernelSpec(bandwidth=w)
        params = st.floats(0.01, 100.0) | st.just(np.inf)
    else:
        make = lambda o: KernelSpec("imq", offset=o)
        params = st.floats(0.01, 100.0)
    if draw(st.booleans()):
        spec = make(draw(params))
    else:
        spec = [make(p) for p in draw(st.lists(params, min_size=d, max_size=d))]
    # Index arrays, which gather copies, or slices, which give views of A and B.
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        i = rng.integers(0, len(A), (draw(st.integers(1, 5)), 1))
        j = rng.integers(0, len(B), draw(st.integers(1, 5)))
    else:
        i, j = np.s_[:, None], np.s_[None]
    return spec, A, i, B, j


@settings(max_examples=300, deadline=None)
@given(_kernel_case())
def test_pair_kernel_in_place_matches_out_of_place_formula(case):
    spec, A, i, B, j = case
    A_bits, B_bits = A.copy().view(np.int64), B.copy().view(np.int64)
    K = pair_kernel(spec, A, i, B, j)
    assert A.view(np.int64).tolist() == A_bits.tolist() and B.view(np.int64).tolist() == B_bits.tolist()
    expected = pair_kernel_out_of_place(spec, A, i, B, j)
    assert K.shape == expected.shape
    assert K.view(np.int64).tolist() == expected.view(np.int64).tolist()


@st.composite
def _normal_point_sets(draw):
    p = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    return rng.standard_normal((draw(st.integers(1, 6)), p)), rng.standard_normal((draw(st.integers(1, 6)), p))


@settings(max_examples=100, deadline=None)
@given(_normal_point_sets(), st.sampled_from([KernelSpec(bandwidth=0.9), KernelSpec(bandwidth=4.0),
                                              KernelSpec("imq", offset=0.5)]))
def test_gram_entries_are_kernel_eval_bit_for_bit(points, spec):
    A, B = points
    g = gram_matrix(spec, A, B)
    expected = np.array([[kernel_eval(spec, a, b) for b in B] for a in A])
    assert g.view(np.int64).tolist() == expected.view(np.int64).tolist()


def test_pair_kernel_rejects_mixed_families_and_wrong_spec_count():
    A = np.zeros((3, 2))
    with pytest.raises(ValueError, match="one family"):
        pair_kernel([KernelSpec(), KernelSpec("imq")], A, ..., A, ...)
    with pytest.raises(DataShapeError, match="one kernel spec per feature"):
        pair_kernel([KernelSpec()] * 3, A, ..., A, ...)
