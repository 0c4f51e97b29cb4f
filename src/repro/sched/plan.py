"""Compiled epoch plans: reusable wave schedules for the SGD executors.

The paper's performance argument is #updates/s (Eq. 7), and every update the
host spends building Python lists of wave indices is an update not spent in
the kernel. This module compiles one epoch's wave schedule *once* into flat
NumPy buffers that are cached across epochs:

* :class:`EpochPlan` — the batch-Hogwild! layout (§5.1). One epoch is a
  single padded ``(n_waves, s)`` int64 matrix built by a vectorized
  reshape/transpose of the sample permutation, instead of a per-wave Python
  list. Under ``shuffle_each_epoch`` the underlying permutation is
  re-shuffled **in place** and the matrix refilled without reallocating.
* :class:`SerialPlan` — the serial-equivalent layout used inside one
  worker's chunk (wavefront grid blocks, LIBMF/NOMAD baselines): the greedy
  conflict-free segmentation of a sample sequence, materialized as
  ``starts``/``stops`` arrays.

Both plans are pure *schedule* objects: they never touch P/Q and draw no
randomness of their own, so executors keep full control of the RNG stream —
compiling a plan is numerically invisible (bit-identical update order to the
uncompiled schedule).

:class:`PlanStats` counts compiles / in-place re-permutations / cache hits;
executors surface it through ``repro.obs`` as per-epoch extras.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["EpochPlan", "SerialPlan", "PlanShard", "PlanStats", "prev_occurrence"]


@dataclass
class PlanStats:
    """Plan-compilation counters, surfaced as ``repro.train.extra.plan_*``.

    ``compiles``
        full plan materializations (O(nnz) reshape + buffer allocation);
    ``repermutes``
        in-place epoch re-shuffles (O(nnz) refill, no allocation);
    ``cache_hits``
        epochs served by the cached matrix with no work at all.
    """

    compiles: int = 0
    repermutes: int = 0
    cache_hits: int = 0

    def as_extra(self) -> dict:
        return {
            "plan_compiles": self.compiles,
            "plan_repermutes": self.repermutes,
            "plan_cache_hits": self.cache_hits,
        }


@dataclass(frozen=True, eq=False)
class PlanShard:
    """One executor's static slice of an :class:`EpochPlan`'s worker lanes.

    The compiled ``(n_waves, s)`` matrix assigns one *logical* worker per
    column; a shard owns the contiguous run of columns ``[col_lo, col_hi)``.
    Physical executors (OS processes, OS threads) each take one shard and
    walk every wave, executing only their own lanes — so within a wave the
    shards race for real, exactly the batch-Hogwild! concurrency the matrix
    encodes, while each shard's intra-lane order stays the compiled serial
    order. Padding only ever shortens a wave from the right, so the live
    lane count of wave ``i`` inside this shard is
    ``clip(lengths[i] - col_lo, 0, width)`` (:meth:`live_width`).

    A shard :meth:`cut` from a wave matrix is a plan in its own right for
    :meth:`~repro.core.kernels.WaveWorkspace.bind_plan`: ``matrix`` is the
    column view, ``lengths`` the shard's per-wave live widths, and
    ``version`` the plan version it was cut from. Cut afresh after the plan
    is re-permuted; the bare edges (``matrix is None``) are what a process
    worker receives.
    """

    index: int
    col_lo: int
    col_hi: int
    matrix: np.ndarray | None = field(default=None, repr=False)
    lengths: np.ndarray | None = field(default=None, repr=False)
    version: int = 0

    @property
    def width(self) -> int:
        return self.col_hi - self.col_lo

    @property
    def n_waves(self) -> int:
        return len(self.lengths)

    def live_width(self, wave_length: int) -> int:
        """Live (non-padding) lanes of a wave with ``wave_length`` samples."""
        live = wave_length - self.col_lo
        if live <= 0:
            return 0
        return live if live < self.width else self.width

    def cut(
        self, matrix: np.ndarray, lengths: np.ndarray, version: int = 0
    ) -> "PlanShard":
        """This shard's lanes of a compiled ``(n_waves, s)`` wave matrix."""
        lo, hi = self.col_lo, self.col_hi
        return PlanShard(
            self.index, lo, hi, matrix[:, lo:hi],
            np.clip(lengths - lo, 0, hi - lo), version,
        )


class EpochPlan:
    """One epoch's batch-Hogwild! wave schedule as a padded index matrix.

    Wave ``t`` of group ``g`` holds sample position ``order[g*s*f + w*f + t]``
    for every worker ``w`` — each worker walks ``f`` consecutive samples of
    the shuffled order (Eq. 8 locality) while waves cut across workers. The
    whole epoch is one ``(n_waves, s)`` int64 matrix (row = wave), built with
    a single reshape/transpose; ``-1`` pads the tail group and every padded
    slot is a *trailing* slot of its row, so ``matrix[i, :lengths[i]]`` is
    wave ``i`` exactly as the legacy per-wave list builder produced it.

    The plan shares ``order`` with its owner: after the owner shuffles the
    permutation in place, :meth:`repermute` / :meth:`refill` rebuild the
    matrix into the existing buffers (no allocation in steady state).
    """

    __slots__ = (
        "workers", "f", "nnz", "order", "stats", "version",
        "_padded", "_grid", "_full", "matrix", "lengths", "n_waves", "width",
    )

    def __init__(
        self,
        order: np.ndarray,
        workers: int,
        f: int,
        stats: PlanStats | None = None,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if f <= 0:
            raise ValueError(f"f must be positive, got {f}")
        order = np.ascontiguousarray(order, dtype=np.int64)
        self.workers = int(workers)
        self.f = int(f)
        self.nnz = len(order)
        self.order = order
        self.stats = stats if stats is not None else PlanStats()
        span = self.workers * self.f
        n_groups = -(-self.nnz // span) if self.nnz else 0
        #: flat padded copy of the order; slots beyond nnz stay -1 forever
        self._padded = np.full(n_groups * span, -1, dtype=np.int64)
        #: (groups, workers, f) view of the padded order — chunk-major
        self._grid = self._padded.reshape(n_groups, self.workers, self.f)
        #: (groups * f, workers) wave-major matrix — the compiled schedule
        self._full = np.empty((n_groups * self.f, self.workers), dtype=np.int64)
        self.width = self.workers
        self.version = 0
        self.refill()
        lengths = np.count_nonzero(self._full >= 0, axis=1).astype(np.int64)
        # padding only ever shortens the *trailing* waves of the tail group,
        # so empty waves form a suffix and non-empty rows are a prefix view
        self.n_waves = int(np.count_nonzero(lengths))
        self.matrix = self._full[: self.n_waves]
        self.lengths = lengths[: self.n_waves]
        self.stats.compiles += 1

    # ------------------------------------------------------------------
    def refill(self) -> None:
        """Rebuild the wave matrix from (a possibly re-shuffled) ``order``.

        Pure buffer traffic: one copy into the padded layout, one strided
        transpose copy into the wave-major matrix. Lengths are invariant —
        shuffling permutes values, never the padding pattern.
        """
        self._padded[: self.nnz] = self.order
        np.copyto(
            self._full.reshape(self._grid.shape[0], self.f, self.workers),
            self._grid.transpose(0, 2, 1),
        )
        self.version += 1

    def repermute(self, rng: np.random.Generator) -> None:
        """Shuffle the shared ``order`` in place and refill the matrix.

        Draws exactly one ``rng.shuffle(order)`` — the same single draw the
        uncompiled schedule made per epoch, keeping RNG streams bit-identical.
        """
        rng.shuffle(self.order)
        self.refill()
        self.stats.repermutes += 1

    def note_cache_hit(self) -> None:
        self.stats.cache_hits += 1

    # ------------------------------------------------------------------
    def matches(self, order: np.ndarray, workers: int, f: int) -> bool:
        """True when this plan is the compiled form of exactly that schedule."""
        return self.order is order and self.workers == workers and self.f == f

    @property
    def n_samples(self) -> int:
        return self.nnz

    def wave(self, i: int) -> np.ndarray:
        """Wave ``i`` as an index view (no copy) into the compiled matrix."""
        return self.matrix[i, : self.lengths[i]]

    def iter_waves(self):
        """Yield every wave as an int64 index view, in execution order."""
        for i, length in enumerate(self.lengths.tolist()):
            yield self.matrix[i, :length]

    def wave_arrays(self) -> list[np.ndarray]:
        """Materialize the schedule as independent per-wave arrays (copies)."""
        return [self.wave(i).copy() for i in range(self.n_waves)]

    def shard(self, n_shards: int) -> list[PlanShard]:
        """Partition the plan's *live* worker lanes into ``n_shards`` shards.

        Lanes beyond ``lengths.max()`` are padding in every wave (a plan
        with ``nnz < s*f`` fills only its first ``ceil(nnz/f)`` chunks), so
        the ``linspace`` edges split the live lanes only: shard widths
        differ by at most one and no shard idles at the barrier while the
        others work. The union of the shards covers every live lane of
        every wave exactly once; with ``n_shards == 1`` the single shard
        spans all live lanes, so executing it wave by wave is the serial
        compiled-plan path bit for bit. The shards are cut for the current
        :attr:`version`; widths and lengths are shuffle-invariant, so the
        edges stay valid across :meth:`repermute`.
        """
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        live = int(self.lengths.max()) if self.n_waves else 0
        edges = np.linspace(0, live, n_shards + 1).astype(np.int64).tolist()
        return [
            PlanShard(i, lo, hi).cut(self.matrix, self.lengths, self.version)
            for i, (lo, hi) in enumerate(zip(edges, edges[1:]))
        ]


# ----------------------------------------------------------------------
# serial-equivalent plans (conflict-free segmentation)
# ----------------------------------------------------------------------
def prev_occurrence(x: np.ndarray) -> np.ndarray:
    """For each position, the previous position holding the same value
    (-1 if none)."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    prev = np.full(len(x), -1, dtype=np.int64)
    if len(x) > 1:
        same = xs[1:] == xs[:-1]
        prev[order[1:][same]] = order[:-1][same]
    return prev


class SerialPlan:
    """Greedy conflict-free segmentation of one worker's sample sequence.

    Each segment ``[starts[i], stops[i])`` contains no repeated row and no
    repeated column (Eq. 6 holds pairwise) and is at most ``max_wave`` long,
    so replaying the segments in order through the wave kernel is numerically
    identical to a serial pass over the sequence. This is the schedule
    representation behind :func:`repro.core.kernels.sgd_serial_update` and
    hence the wavefront scheduler's per-block execution.
    """

    __slots__ = ("starts", "stops", "n_samples", "max_wave")

    def __init__(self, starts: np.ndarray, stops: np.ndarray, max_wave: int) -> None:
        self.starts = starts
        self.stops = stops
        self.max_wave = int(max_wave)
        self.n_samples = int(stops[-1]) if len(stops) else 0

    @classmethod
    def compile(
        cls, rows: np.ndarray, cols: np.ndarray, max_wave: int = 64
    ) -> "SerialPlan":
        n = len(rows)
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, empty, max_wave)
        prev = np.maximum(prev_occurrence(rows), prev_occurrence(cols))
        starts: list[int] = []
        stops: list[int] = []
        start = 0
        while start < n:
            limit = min(start + max_wave, n)
            window = prev[start + 1 : limit]
            hits = np.nonzero(window >= start)[0]
            stop = start + 1 + int(hits[0]) if len(hits) else limit
            starts.append(start)
            stops.append(stop)
            start = stop
        return cls(
            np.asarray(starts, dtype=np.int64),
            np.asarray(stops, dtype=np.int64),
            max_wave,
        )

    @property
    def n_waves(self) -> int:
        return len(self.starts)

    def segments(self) -> list[tuple[int, int]]:
        """The segmentation as plain ``(start, stop)`` tuples."""
        return list(zip(self.starts.tolist(), self.stops.tolist()))
