from itertools import permutations

import numpy as np
import pytest

from oracles import (
    block_design,
    complete_pair_design,
    complete_quad_design,
    pair_design_two_draws,
    quad_design_four_draws,
)
from selkern import (
    DataShapeError,
    Design,
    derive_rng,
    sample_pair_design,
    sample_quad_design,
)


def test_design_validation():
    with pytest.raises(DataShapeError):
        Design(np.array([[0, 0]]), n=3)
    with pytest.raises(DataShapeError):
        Design(np.array([[0, 3]]), n=3)
    with pytest.raises(DataShapeError):
        Design(np.empty((0, 2), dtype=int), n=3)


def test_pair_design_two_candidates():
    design = sample_pair_design(2, 5, derive_rng(0))
    assert len(design) == 5
    for i, j in design.tuples:
        assert {i, j} == {0, 1}


def test_pair_design_deterministic():
    a = sample_pair_design(10, 50, derive_rng(42))
    b = sample_pair_design(10, 50, derive_rng(42))
    assert np.array_equal(a.tuples, b.tuples)


def test_pair_design_uniform_frequencies():
    n, l = 10, 100_000
    design = sample_pair_design(n, l, derive_rng(6))
    counts = np.zeros((n, n))
    np.add.at(counts, (design.tuples[:, 0], design.tuples[:, 1]), 1)
    assert np.array_equal(np.diag(counts), np.zeros(n))
    p = 1.0 / (n * (n - 1))
    sd = np.sqrt(l * p * (1 - p))
    off = counts[~np.eye(n, dtype=bool)]
    assert np.abs(off - l * p).max() <= 3 * sd


def test_pair_design_errors():
    with pytest.raises(DataShapeError, match=r"^need n >= 2 to form index pairs$"):
        sample_pair_design(1, 5, derive_rng(0))
    with pytest.raises(DataShapeError, match=r"^design size must be >= 1$"):
        sample_pair_design(5, 0, derive_rng(0))


@pytest.mark.parametrize("sampler, oracle, width", [
    (sample_pair_design, pair_design_two_draws, 2),
    (sample_quad_design, quad_design_four_draws, 4),
])
def test_samplers_match_the_slot_by_slot_oracles(sampler, oracle, width):
    # n = width leaves each later slot one value; each sampler must also leave
    # its generator where the oracle leaves it.
    for n in (width, width + 1, 7, 50, 2000):
        for l in (1, 3, 100):
            for seed in range(20):
                ours, theirs = derive_rng(seed), derive_rng(seed)
                assert np.array_equal(sampler(n, l, ours).tuples, oracle(n, l, theirs).tuples)
                assert ours.integers(0, 2**62) == theirs.integers(0, 2**62)


@pytest.mark.parametrize("call, message", [
    (lambda: Design(np.array([0, 1]), n=3), "design tuples must form a 2-D index array"),
    (lambda: sample_quad_design(3, 5, derive_rng(0)), "need n >= 4 to form index quadruples"),
    (lambda: sample_quad_design(5, 0, derive_rng(0)), "design size must be >= 1"),
], ids=["design-ndim", "quad-n", "quad-l"])
def test_input_checks(call, message):
    with pytest.raises(DataShapeError, match=f"^{message}$"):
        call()


def test_quad_design_minimal_n():
    design = sample_quad_design(4, 3, derive_rng(1))
    for quad in design.tuples:
        assert sorted(quad) == [0, 1, 2, 3]


def test_quad_design_deterministic():
    a = sample_quad_design(9, 40, derive_rng(5))
    b = sample_quad_design(9, 40, derive_rng(5))
    assert np.array_equal(a.tuples, b.tuples)


def test_quad_design_distinct_indices():
    design = sample_quad_design(12, 5000, derive_rng(2))
    sorted_rows = np.sort(design.tuples, axis=1)
    assert (np.diff(sorted_rows, axis=1) > 0).all()
    assert design.tuples.min() >= 0 and design.tuples.max() < 12


def test_quad_design_first_index_uniform():
    n, l = 8, 100_000
    design = sample_quad_design(n, l, derive_rng(9))
    counts = np.bincount(design.tuples[:, 0], minlength=n)
    p = 1.0 / n
    sd = np.sqrt(l * p * (1 - p))
    assert np.abs(counts - l * p).max() <= 3 * sd


def test_quad_design_all_positions_cover_all_tuples():
    # At n = 5 every ordered distinct quadruple should eventually appear.
    design = sample_quad_design(5, 60_000, derive_rng(3))
    seen = {tuple(row) for row in design.tuples.tolist()}
    assert seen == set(permutations(range(5), 4))


def test_block_design_counts():
    assert len(block_design(8, 4)) == 2 * 24
    assert len(block_design(8, 8)) == 8 * 7 * 6 * 5


def test_block_design_tuples_stay_in_blocks():
    design = block_design(12, 4)
    per_block = 24
    for b in range(3):
        chunk = design.tuples[b * per_block : (b + 1) * per_block]
        assert chunk.min() >= b * 4 and chunk.max() < (b + 1) * 4


def test_block_design_discards_trailing_rows():
    design = block_design(11, 4)
    assert len(design) == 2 * 24
    assert design.tuples.max() < 8


def test_block_design_errors():
    with pytest.raises(DataShapeError):
        block_design(10, 3)
    with pytest.raises(DataShapeError):
        block_design(3, 4)


def test_complete_designs():
    pairs = complete_pair_design(5)
    assert len(pairs) == 20
    quads = complete_quad_design(5)
    assert len(quads) == 5 * 4 * 3 * 2
    assert {tuple(q) for q in quads.tuples.tolist()} == set(permutations(range(5), 4))
