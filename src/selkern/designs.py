"""Random index designs for incomplete U-statistics."""
from __future__ import annotations

import numpy as np

from .core import DataShapeError, Design


def sample_pair_design(n: int, l: int, rng: np.random.Generator) -> Design:
    """l ordered pairs drawn uniformly with replacement from {(i,j): i != j}."""
    if n < 2:
        raise DataShapeError("need n >= 2 to form index pairs")
    if l < 1:
        raise DataShapeError("design size must be >= 1")
    i = rng.integers(0, n, size=l)
    j = rng.integers(0, n - 1, size=l)
    j += j >= i
    return Design(np.column_stack([i, j]), n)


def sample_quad_design(n: int, l: int, rng: np.random.Generator) -> Design:
    """l ordered 4-tuples of distinct indices, uniform with replacement."""
    if n < 4:
        raise DataShapeError("need n >= 4 to form index quadruples")
    if l < 1:
        raise DataShapeError("design size must be >= 1")
    a = rng.integers(0, n, size=l)
    b = rng.integers(0, n - 1, size=l)
    b += b >= a
    # Each later slot is drawn from the remaining values and shifted past the
    # already-used indices in ascending order.
    c = rng.integers(0, n - 2, size=l)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    c += c >= lo
    c += c >= hi
    e = rng.integers(0, n - 3, size=l)
    used = np.sort(np.column_stack([a, b, c]), axis=1)
    for col in range(3):
        e += e >= used[:, col]
    return Design(np.column_stack([a, b, c, e]), n)

