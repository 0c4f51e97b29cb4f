"""Sparse rating-matrix container in COO format.

The paper stores the rating matrix ``R`` as COO triples — two ``int32``
indices plus one ``float32`` value, i.e. 12 bytes per sample — and both the
Flops/Byte characterization (Eq. 5) and the batch-Hogwild! locality argument
(Eq. 8) rely on that layout. :class:`RatingMatrix` mirrors it exactly with
three parallel NumPy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = ["RatingMatrix", "SAMPLE_BYTES"]

#: Bytes per COO sample: two int32 coordinates + one float32 rating.
SAMPLE_BYTES = 12


@dataclass
class RatingMatrix:
    """A sparse ``m x n`` rating matrix with ``nnz`` observed samples.

    Parameters
    ----------
    rows, cols:
        ``int32`` coordinate arrays, each of length ``nnz``. ``rows[t]`` is
        the user index ``u`` and ``cols[t]`` the item index ``v`` of sample
        ``t``.
    vals:
        ``float32`` ratings, length ``nnz``.
    n_rows, n_cols:
        Logical matrix shape ``(m, n)``. May exceed ``max(rows)+1`` /
        ``max(cols)+1`` when some users or items have no training sample.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    n_rows: int
    n_cols: int
    name: str = field(default="unnamed")

    def __post_init__(self) -> None:
        self.rows = np.ascontiguousarray(self.rows, dtype=np.int32)
        self.cols = np.ascontiguousarray(self.cols, dtype=np.int32)
        self.vals = np.ascontiguousarray(self.vals, dtype=np.float32)
        if not (self.rows.ndim == self.cols.ndim == self.vals.ndim == 1):
            raise ValueError("rows, cols, vals must be 1-D arrays")
        if not (len(self.rows) == len(self.cols) == len(self.vals)):
            raise ValueError(
                "coordinate arrays disagree in length: "
                f"{len(self.rows)}, {len(self.cols)}, {len(self.vals)}"
            )
        self.n_rows = int(self.n_rows)
        self.n_cols = int(self.n_cols)
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise ValueError(f"invalid shape ({self.n_rows}, {self.n_cols})")
        if len(self.rows):
            rmin, rmax = int(self.rows.min()), int(self.rows.max())
            cmin, cmax = int(self.cols.min()), int(self.cols.max())
            if rmin < 0 or rmax >= self.n_rows:
                raise ValueError(f"row index {rmax if rmax >= self.n_rows else rmin} outside [0, {self.n_rows})")
            if cmin < 0 or cmax >= self.n_cols:
                raise ValueError(f"col index {cmax if cmax >= self.n_cols else cmin} outside [0, {self.n_cols})")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of observed samples ``N``."""
        return len(self.vals)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def density(self) -> float:
        """Fraction of the ``m x n`` grid that is observed."""
        return self.nnz / (self.n_rows * self.n_cols)

    @property
    def nbytes(self) -> int:
        """COO storage footprint (12 bytes per sample, as in the paper)."""
        return self.nnz * SAMPLE_BYTES

    def __len__(self) -> int:
        return self.nnz

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RatingMatrix(name={self.name!r}, shape={self.shape}, "
            f"nnz={self.nnz}, density={self.density:.2e})"
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray, name: str = "dense") -> "RatingMatrix":
        """Build from a dense array, treating NaN entries as unobserved."""
        dense = np.asarray(dense, dtype=np.float32)
        if dense.ndim != 2:
            raise ValueError("dense input must be 2-D")
        mask = ~np.isnan(dense)
        rows, cols = np.nonzero(mask)
        return cls(
            rows=rows.astype(np.int32),
            cols=cols.astype(np.int32),
            vals=dense[rows, cols],
            n_rows=dense.shape[0],
            n_cols=dense.shape[1],
            name=name,
        )

    def to_dense(self) -> np.ndarray:
        """Densify; unobserved entries become NaN. For small matrices only."""
        out = np.full(self.shape, np.nan, dtype=np.float32)
        out[self.rows, self.cols] = self.vals
        return out

    def copy(self) -> "RatingMatrix":
        return RatingMatrix(
            rows=self.rows.copy(),
            cols=self.cols.copy(),
            vals=self.vals.copy(),
            n_rows=self.n_rows,
            n_cols=self.n_cols,
            name=self.name,
        )

    # ------------------------------------------------------------------
    # reordering and selection
    # ------------------------------------------------------------------
    def take(self, index: np.ndarray, name: str | None = None) -> "RatingMatrix":
        """Select samples by position, keeping the logical shape.

        ``index`` holds positions; a boolean mask selects its True ones.
        """
        index = np.asarray(index)
        if index.dtype == np.bool_:
            index = np.flatnonzero(index)
        return RatingMatrix(
            rows=self.rows.take(index),
            cols=self.cols.take(index),
            vals=self.vals.take(index),
            n_rows=self.n_rows,
            n_cols=self.n_cols,
            name=name or self.name,
        )

    def shuffled(self, rng: np.random.Generator) -> "RatingMatrix":
        """Return a sample-order-randomized copy (Algorithm 1, line 2)."""
        perm = rng.permutation(self.nnz)
        return self.take(perm)

    def sorted_by_block(self, row_edges: np.ndarray, col_edges: np.ndarray) -> "RatingMatrix":
        """Sort samples so that each grid block is contiguous in memory.

        This mirrors the preprocessing the paper's wavefront and multi-GPU
        schemes need: block ``(bi, bj)`` of the partition grid occupies one
        contiguous slice of the COO arrays, so it can be staged to a device
        with a single transfer.
        """
        bi = np.searchsorted(row_edges, self.rows, side="right") - 1
        bj = np.searchsorted(col_edges, self.cols, side="right") - 1
        order = np.lexsort((self.cols, self.rows, bj, bi))
        return self.take(order)

    def block_slice(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int) -> np.ndarray:
        """Positions of samples falling in ``[row_lo,row_hi) x [col_lo,col_hi)``."""
        mask = (
            (self.rows >= row_lo)
            & (self.rows < row_hi)
            & (self.cols >= col_lo)
            & (self.cols < col_hi)
        )
        return np.nonzero(mask)[0]

    def batches(self, batch: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(rows, cols, vals)`` chunks of at most ``batch`` samples."""
        if batch <= 0:
            raise ValueError("batch must be positive")
        for lo in range(0, self.nnz, batch):
            hi = min(lo + batch, self.nnz)
            yield self.rows[lo:hi], self.cols[lo:hi], self.vals[lo:hi]

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def row_counts(self) -> np.ndarray:
        """Samples per row (user activity histogram)."""
        return np.bincount(self.rows, minlength=self.n_rows)

    def col_counts(self) -> np.ndarray:
        """Samples per column (item popularity histogram)."""
        return np.bincount(self.cols, minlength=self.n_cols)

    def mean_rating(self) -> float:
        if self.nnz == 0:
            return 0.0
        return float(self.vals.mean())

    def validate_disjoint(self, other: "RatingMatrix") -> bool:
        """True when no (row, col) coordinate appears in both matrices."""
        key_self = self.rows.astype(np.int64) * self.n_cols + self.cols
        key_other = other.rows.astype(np.int64) * other.n_cols + other.cols
        return not bool(np.intersect1d(key_self, key_other).size)
