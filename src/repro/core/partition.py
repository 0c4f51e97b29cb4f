"""Workload partition (§6.1): the ``i x j`` grid over R and its feature
segments.

For data sets larger than one device's memory, R is divided into ``i x j``
blocks; P into ``i`` row segments and Q into ``j`` column segments. Updating
block ``(bi, bj)`` touches only segment ``bi`` of P and segment ``bj`` of Q,
so independent blocks (distinct ``bi`` AND distinct ``bj``) can be updated on
different devices concurrently, and only the two segments need to move over
the interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.container import RatingMatrix, SAMPLE_BYTES

__all__ = ["GridPartition", "BlockView", "grid_block_index"]


def grid_edges(n: int, parts: int) -> np.ndarray:
    """Boundaries of ``parts`` near-equal segments of ``range(n)``."""
    return np.linspace(0, n, parts + 1).astype(np.int64)


def grid_block_index(ratings: RatingMatrix, i: int, j: int) -> list[np.ndarray]:
    """Sample positions of every block of the even ``i x j`` grid over
    ``ratings``, flat in row-major order: block ``(bi, bj)`` is entry
    ``bi * j + bj``, its positions ascending.

    The shape is not checked: a grid finer than the matrix leaves some
    blocks empty.
    """
    bi = np.searchsorted(grid_edges(ratings.n_rows, i), ratings.rows, side="right") - 1
    bj = np.searchsorted(grid_edges(ratings.n_cols, j), ratings.cols, side="right") - 1
    flat = bi.astype(np.int64) * j + bj
    order = np.argsort(flat, kind="stable")
    bounds = np.searchsorted(flat[order], np.arange(i * j + 1))
    return [order[bounds[b] : bounds[b + 1]] for b in range(i * j)]


@dataclass(frozen=True)
class BlockView:
    """One grid block: its bounds and the positions of its samples."""

    bi: int
    bj: int
    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int
    sample_index: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.sample_index)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_hi - self.row_lo, self.col_hi - self.col_lo)

    def coo_bytes(self) -> int:
        """Bytes to stage this block's samples to a device."""
        return self.nnz * SAMPLE_BYTES

    def feature_bytes(self, k: int, feature_bytes: int = 4) -> int:
        """Bytes of the P and Q segments this block touches."""
        rows = self.row_hi - self.row_lo
        cols = self.col_hi - self.col_lo
        return (rows + cols) * k * feature_bytes


class GridPartition:
    """Partition of a rating matrix into an ``i x j`` block grid."""

    def __init__(self, ratings: RatingMatrix, i: int, j: int) -> None:
        if i <= 0 or j <= 0:
            raise ValueError(f"grid ({i}, {j}) must be positive")
        if i > ratings.n_rows or j > ratings.n_cols:
            raise ValueError(
                f"grid ({i}, {j}) exceeds matrix shape {ratings.shape}"
            )
        self.ratings = ratings
        self.i = i
        self.j = j
        self.row_edges = grid_edges(ratings.n_rows, i)
        self.col_edges = grid_edges(ratings.n_cols, j)
        self._sample_index = grid_block_index(ratings, i, j)

    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return self.i * self.j

    def block(self, bi: int, bj: int) -> BlockView:
        """The block at grid coordinates ``(bi, bj)``."""
        if not (0 <= bi < self.i and 0 <= bj < self.j):
            raise IndexError(f"block ({bi}, {bj}) outside ({self.i}, {self.j}) grid")
        return BlockView(
            bi=bi,
            bj=bj,
            row_lo=int(self.row_edges[bi]),
            row_hi=int(self.row_edges[bi + 1]),
            col_lo=int(self.col_edges[bj]),
            col_hi=int(self.col_edges[bj + 1]),
            sample_index=self._sample_index[bi * self.j + bj],
        )

    def blocks(self) -> list[BlockView]:
        """All blocks in row-major order."""
        return [self.block(bi, bj) for bi in range(self.i) for bj in range(self.j)]

    def block_of(self, u: int, v: int) -> tuple[int, int]:
        """Grid coordinates of the block containing sample ``(u, v)``."""
        if not (0 <= u < self.ratings.n_rows and 0 <= v < self.ratings.n_cols):
            raise IndexError(f"({u}, {v}) outside matrix {self.ratings.shape}")
        bi = int(np.searchsorted(self.row_edges, u, side="right") - 1)
        bj = int(np.searchsorted(self.col_edges, v, side="right") - 1)
        return bi, bj

    # ------------------------------------------------------------------
    def independent(self, a: tuple[int, int], b: tuple[int, int]) -> bool:
        """Eq. 6 lifted to blocks: disjoint grid rows AND grid columns."""
        return a[0] != b[0] and a[1] != b[1]

    def independent_set(self, blocks: list[tuple[int, int]]) -> bool:
        """True when the blocks are pairwise independent."""
        rows = [b[0] for b in blocks]
        cols = [b[1] for b in blocks]
        return len(set(rows)) == len(rows) and len(set(cols)) == len(cols)

    def max_independent_blocks(self) -> int:
        """Largest concurrent block set: ``min(i, j)`` (one per grid row/col)."""
        return min(self.i, self.j)

    # ------------------------------------------------------------------
    def coverage_check(self) -> bool:
        """Every sample appears in exactly one block."""
        total = sum(len(ix) for ix in self._sample_index)
        if total != self.ratings.nnz:
            return False
        seen = np.concatenate([ix for ix in self._sample_index if len(ix)]) if total else np.empty(0)
        return len(np.unique(seen)) == self.ratings.nnz

    def block_nnz(self) -> np.ndarray:
        """``i x j`` array of per-block sample counts (load-balance view)."""
        return np.array(
            [len(ix) for ix in self._sample_index], dtype=np.int64
        ).reshape(self.i, self.j)

    def max_block_bytes(self, k: int, feature_bytes: int = 4) -> int:
        """Device memory needed for the largest block + its feature segments.

        This is the §6.1 sizing question: each block must fit in one GPU.
        """
        nnz = self.block_nnz()
        worst = 0
        for bi in range(self.i):
            rows = int(self.row_edges[bi + 1] - self.row_edges[bi])
            for bj in range(self.j):
                cols = int(self.col_edges[bj + 1] - self.col_edges[bj])
                total = int(nnz[bi, bj]) * SAMPLE_BYTES + (rows + cols) * k * feature_bytes
                worst = max(worst, total)
        return worst
