"""Train/test splitting.

The paper's Netflix and Yahoo!Music come with a test set; for Hugewiki the
authors "randomly sample and extract out 1% of the data as the test set"
(§2.2). :func:`train_test_split` implements exactly that sampling.

The split gathers each field once, in permuted order
(:meth:`RatingMatrix.take`). The test set is the first ``n_test`` samples
of those arrays and the train set the rest: both are slices of one
permuted copy of the input.
"""

from __future__ import annotations

import numpy as np

from repro.data.container import RatingMatrix

__all__ = ["train_test_split"]


def train_test_split(
    ratings: RatingMatrix,
    test_fraction: float = 0.01,
    rng: np.random.Generator | None = None,
) -> tuple[RatingMatrix, RatingMatrix]:
    """Randomly hold out ``test_fraction`` of the samples as a test set.

    Returns ``(train, test)``. Both share the logical matrix shape, and their
    coordinate sets are disjoint by construction.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = rng or np.random.default_rng()
    n_test = int(round(ratings.nnz * test_fraction))
    if n_test == 0 or n_test == ratings.nnz:
        raise ValueError(
            f"test_fraction={test_fraction} leaves an empty split for nnz={ratings.nnz}"
        )
    mixed = ratings.take(rng.permutation(ratings.nnz))

    def part(sl: slice, suffix: str) -> RatingMatrix:
        return RatingMatrix(mixed.rows[sl], mixed.cols[sl], mixed.vals[sl],
                            ratings.n_rows, ratings.n_cols,
                            name=f"{ratings.name}-{suffix}")

    return part(slice(n_test, None), "train"), part(slice(n_test), "test")
