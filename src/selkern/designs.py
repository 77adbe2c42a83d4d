"""Random index designs for incomplete U-statistics."""
from __future__ import annotations

import numpy as np

from .core import DataShapeError, Design


def sample_pair_design(n: int, l: int, rng: np.random.Generator) -> Design:
    """l ordered pairs drawn uniformly with replacement from {(i,j): i != j}."""
    return _distinct_tuples(n, l, 2, "pairs", rng)


def sample_quad_design(n: int, l: int, rng: np.random.Generator) -> Design:
    """l ordered 4-tuples of distinct indices, uniform with replacement."""
    return _distinct_tuples(n, l, 4, "quadruples", rng)


def _distinct_tuples(n: int, l: int, width: int, noun: str, rng: np.random.Generator) -> Design:
    """l ordered ``width``-tuples of distinct indices in [0, n), uniform with replacement.

    Slot s draws from the n - s values left and is shifted past the earlier
    slots' indices in ascending order, one slot after another from ``rng``."""
    if n < width:
        raise DataShapeError(f"need n >= {width} to form index {noun}")
    if l < 1:
        raise DataShapeError("design size must be >= 1")
    tuples = np.empty((l, width), dtype=np.intp)
    for s in range(width):
        slot = rng.integers(0, n - s, size=l)
        for used in np.sort(tuples[:, :s], axis=1).T:
            slot += slot >= used
        tuples[:, s] = slot
    return Design(tuples, n)
