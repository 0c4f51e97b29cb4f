"""Compiled epoch plans: reusable wave schedules for the SGD executors.

The paper's performance argument is #updates/s (Eq. 7), and every update the
host spends building Python lists of wave indices is an update not spent in
the kernel. This module compiles one epoch's wave schedule *once* into flat
NumPy buffers that are cached across epochs:

* :class:`EpochPlan` — the batch-Hogwild! layout (§5.1). One epoch is the
  shuffled sample permutation plus arithmetic: a compiled kernel stages
  its waves straight from the permutation, and
  :meth:`EpochPlan.positions` lays any lane range out wave-major into a
  buffer its caller owns, for the consumers that walk waves in Python.
  Every epoch the permutation is re-shuffled **in place**
  (:meth:`EpochPlan.repermute`).
* :class:`SerialPlan` — the serial-equivalent layout used inside one
  worker's chunk (wavefront grid blocks, LIBMF/NOMAD baselines): the greedy
  conflict-free segmentation of a sample sequence, materialized as
  ``starts``/``stops`` arrays.

Both plans are pure *schedule* objects: they never touch P/Q and draw no
randomness of their own, so executors keep full control of the RNG stream —
compiling a plan is numerically invisible (bit-identical update order to the
uncompiled schedule).

:class:`PlanStats` counts compiles and in-place re-permutations;
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
        plans built over a new order;
    ``repermutes``
        in-place re-shuffles (O(nnz), no allocation), one per epoch of
        :class:`~repro.core.hogwild.BatchHogwild`, the first included.
    """

    compiles: int = 0
    repermutes: int = 0

    def as_extra(self) -> dict:
        return {
            "plan_compiles": self.compiles,
            "plan_repermutes": self.repermutes,
        }


@dataclass(frozen=True, eq=False)
class PlanShard:
    """One executor's static slice of an :class:`EpochPlan`'s worker lanes.

    The plan assigns one *logical* worker per lane; a shard owns the
    contiguous run of lanes ``[col_lo, col_hi)``. OS threads each take one
    shard and walk every wave, executing only their own lanes — so within
    a wave the shards race for real, exactly the batch-Hogwild!
    concurrency the plan encodes, while each shard's intra-lane order
    stays the plan's serial order. Padding only ever shortens a wave from
    the right, so the live lane count of wave ``i`` inside this shard is
    ``lengths[i] = clip(plan.lengths[i] - col_lo, 0, width)``.

    A shard is a plan in its own right for
    :meth:`~repro.core.kernels.WaveWorkspace.bind_plan` and the backends'
    ``replay``: they read its ``plan``'s current ``order`` (a compiled
    kernel) or lay its lanes out with :meth:`EpochPlan.positions`, so a
    shard stays valid across :meth:`EpochPlan.repermute`.
    """

    index: int
    col_lo: int
    col_hi: int
    lengths: np.ndarray = field(repr=False)
    #: the plan whose lanes these are
    plan: "EpochPlan" = field(repr=False)

    @property
    def width(self) -> int:
        return self.col_hi - self.col_lo

    @property
    def n_waves(self) -> int:
        return len(self.lengths)


def _wave_lengths(nnz: int, workers: int, f: int) -> np.ndarray:
    """Live lanes of every non-empty wave of a batch-Hogwild! epoch.

    Full groups run ``workers`` lanes in each of their ``f`` waves. In the
    tail group of ``rem`` samples, lane ``l`` holds ``l*f + [0, f)``, so
    wave ``t`` is live on the first ``ceil((rem - t) / f)`` lanes and
    waves ``t >= rem`` are empty (and dropped).
    """
    full, rem = divmod(nnz, workers * f)
    tail = min(rem, f)
    lengths = np.full(full * f + tail, workers, dtype=np.int64)
    lengths[full * f :] = (rem - np.arange(tail) + f - 1) // f
    return lengths


class EpochPlan:
    """One epoch's batch-Hogwild! wave schedule over a shuffled order.

    Wave ``t`` of group ``g`` holds sample position ``order[g*s*f + w*f + t]``
    for every worker ``w`` — each worker walks ``f`` consecutive samples of
    the shuffled order (Eq. 8 locality) while waves cut across workers. The
    schedule is fully defined by ``(order, workers, f)``: ``lengths`` (live
    lanes per wave; the tail group only shortens waves from the right) is
    arithmetic, and a compiled kernel stages each group straight from
    ``order`` (:meth:`~repro.backends.c_backend.CBackend.replay`).
    :meth:`positions` lays lanes out wave-major for the consumers that walk
    waves in Python, into a buffer each of them owns.

    A plan is also its own full-width shard (``plan``, ``col_lo`` and
    ``col_hi`` as on :class:`PlanShard`), so executors hand either to a
    backend. An int64 ``order`` is held without a copy; the executor
    shuffles it in place before each epoch through :meth:`repermute`.
    """

    __slots__ = (
        "workers", "f", "nnz", "order", "stats", "lengths", "n_waves",
        "width",
    )

    #: first lane of the plan as a shard
    col_lo = 0

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
        self.width = self.workers
        self.lengths = _wave_lengths(self.nnz, self.workers, self.f)
        self.n_waves = len(self.lengths)
        self.stats.compiles += 1

    @property
    def plan(self) -> "EpochPlan":
        return self

    @property
    def col_hi(self) -> int:
        return self.width

    # ------------------------------------------------------------------
    def positions(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Lay lanes ``[lo, hi)`` of the current ``order`` out wave-major
        into ``out`` and return it.

        ``out`` is a C-contiguous ``(n_waves, hi - lo)`` int64 array; row
        ``i`` receives wave ``i``'s sample positions in those lanes and
        ``-1`` in the slots past its live lanes (padding only trims a wave
        from the right). The full groups are one strided transpose copy;
        the tail group's whole lanes one more, its partial lane a slice.
        """
        s, f, width = self.workers, self.f, hi - lo
        if not (0 <= lo <= hi <= s and out.shape == (self.n_waves, width)
                and out.flags.c_contiguous):
            raise ValueError(
                f"lanes [{lo}, {hi}) of a {s}-lane plan need a C-contiguous "
                f"({self.n_waves}, {max(width, 0)}) buffer, got {out.shape}"
            )
        groups, rem = divmod(self.nnz, s * f)
        body = groups * s * f
        np.copyto(
            out[: groups * f].reshape(groups, f, width),
            self.order[:body].reshape(groups, s, f)[:, lo:hi].transpose(0, 2, 1),
        )
        if rem:
            tail = out[groups * f :]
            tail.fill(-1)
            lanes, part = divmod(rem, f)
            whole = min(lanes, hi)  # then the tail spans all f waves
            if whole > lo:
                np.copyto(tail[:, : whole - lo],
                          self.order[body + lo * f : body + whole * f]
                          .reshape(whole - lo, f).T)
            if part and lo <= lanes < hi:
                tail[:part, lanes - lo] = self.order[body + lanes * f :]
        return out

    def wave_positions(self, i: int) -> np.ndarray:
        """Wave ``i``'s live positions in lane order (row ``i`` of
        :meth:`positions` without padding): a strided view of ``order``."""
        if not 0 <= i < self.n_waves:
            raise IndexError(f"wave {i} of a {self.n_waves}-wave plan")
        start = i // self.f * self.workers * self.f
        stop = min(start + self.workers * self.f, self.nnz)
        return self.order[start + i % self.f : stop : self.f]

    def repermute(self, rng: np.random.Generator) -> None:
        """Shuffle ``order`` in place for the next epoch.

        Draws exactly one ``rng.shuffle(order)``, the single draw the
        uncompiled schedule made per epoch. Over a fresh ``arange(nnz)``
        that is ``rng.permutation(nnz)`` draw for draw, so a plan's first
        epoch matches the schedule's first permutation bit for bit.
        """
        rng.shuffle(self.order)
        self.stats.repermutes += 1

    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return self.nnz

    def wave_arrays(self) -> list[np.ndarray]:
        """The schedule as per-wave position arrays, independent of the
        plan (copies)."""
        return [self.wave_positions(i).copy() for i in range(self.n_waves)]

    def shard(self, n_shards: int) -> list[PlanShard]:
        """Partition the plan's *live* worker lanes into ``n_shards`` shards.

        Lanes beyond ``lengths.max()`` are padding in every wave (a plan
        with ``nnz < s*f`` fills only its first ``ceil(nnz/f)`` chunks), so
        the ``linspace`` edges split the live lanes only: shard widths
        differ by at most one and no shard idles at the barrier while the
        others work. The union of the shards covers every live lane of
        every wave exactly once; with ``n_shards == 1`` the single shard
        spans all live lanes, so executing it wave by wave is the serial
        compiled-plan path bit for bit. Widths and lengths are
        shuffle-invariant, so the shards stay valid across
        :meth:`repermute`.
        """
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        live = int(self.lengths.max()) if self.n_waves else 0
        edges = np.linspace(0, live, n_shards + 1).astype(np.int64).tolist()
        return [
            PlanShard(i, lo, hi, np.clip(self.lengths - lo, 0, hi - lo),
                      plan=self)
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
