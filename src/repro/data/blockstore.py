"""Out-of-core block store: the paper's i×j partition persisted on disk.

For rating matrices larger than working memory, §6.1 divides R into an
``i x j`` grid and stages one block at a time to the device while the next
block's transfer overlaps the current block's compute (§6.2, Fig. 8b — the
block-based out-of-core approach also used by Bhavana & Padmanabhan,
arXiv:2304.13724). This module is the host-side analogue:

* :class:`BlockStore` partitions a :class:`~repro.data.container.RatingMatrix`
  via :class:`~repro.core.partition.GridPartition` and persists every block
  as one ``.npy`` shard of packed 12-byte COO records
  (:data:`~repro.data.io.COO_DTYPE` — the exact Eq. 5 layout), plus a JSON
  manifest. Shards load back as zero-copy memory maps, so any number of
  workers can read them concurrently through the page cache.
* :class:`BlockPrefetcher` is the double-buffered staging pipeline: a
  background thread loads shard ``b+1`` into a preallocated staging buffer
  while the consumer computes on shard ``b`` — the same overlap the
  three-stream recurrence in :mod:`repro.gpusim.streams` models, with the
  disk read playing the H2D copy. Depth 2 mirrors the paper's
  two-resident-blocks choice.

Observability: :class:`PrefetchStats` counts blocks/bytes staged, load
seconds, and consumer stall seconds, and publishes them to the ambient
registry under the ``repro.stage.*`` manifest names.
"""

from __future__ import annotations

import contextvars
import json
import queue
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.core.partition import GridPartition
from repro.data.container import RatingMatrix, SAMPLE_BYTES
from repro.data.io import COO_DTYPE

__all__ = ["BlockStore", "BlockPrefetcher", "PrefetchStats"]

_META_NAME = "blockstore.json"
_STORE_VERSION = 1

#: Shared names the prefetch loader thread may legitimately mutate, audited
#: by the ``race-shared-write`` lint pass: ``stats`` fields are written by
#: the loader and only read by the consumer after join(); ``ready`` /
#: ``slots`` are internally locked :class:`queue.Queue` hand-off channels.
#: (``tracer.add_span`` is one GIL-atomic list append.)
SHARED_WRITE_OK = ("stats", "ready", "slots")

#: ``np.load`` parses a shard's header with ``ast.literal_eval``, and
#: CPython 3.11 keeps the AST constructor's recursion depth in state that
#: all threads share: two prefetch loaders parsing at once can raise
#: ``SystemError: AST constructor recursion depth mismatch``. Shards are
#: opened one at a time; their copies into staging buffers still overlap.
_OPEN_LOCK = threading.Lock()

#: Consumer stalls shorter than this render as noise, not signal — they
#: still accumulate into :attr:`PrefetchStats.wait_seconds`, but no
#: ``stage.stall`` span is emitted for them.
STALL_SPAN_MIN_S = 1e-4


class BlockStore:
    """An ``i x j`` grid of a rating matrix persisted as mmap-able shards.

    Layout under ``root``::

        blockstore.json            # manifest: shape, grid, edges, per-block nnz
        block_<bi>_<bj>.npy        # packed COO_DTYPE records of block (bi, bj)

    Shards are written once by :meth:`create` and never mutated; readers
    attach with :meth:`open` and map shards read-only, so concurrent
    workers share one page-cache copy.
    """

    def __init__(self, root: str | Path, meta: dict) -> None:
        self.root = Path(root)
        if meta.get("version") != _STORE_VERSION:
            raise ValueError(
                f"unsupported blockstore version {meta.get('version')!r} "
                f"(expected {_STORE_VERSION})"
            )
        self.meta = meta
        self.i = int(meta["i"])
        self.j = int(meta["j"])
        self.n_rows = int(meta["n_rows"])
        self.n_cols = int(meta["n_cols"])
        self.nnz = int(meta["nnz"])
        self.name = str(meta.get("name", "blockstore"))
        self.row_edges = np.asarray(meta["row_edges"], dtype=np.int64)
        self.col_edges = np.asarray(meta["col_edges"], dtype=np.int64)
        self.block_nnz = np.asarray(meta["block_nnz"], dtype=np.int64)
        if self.block_nnz.shape != (self.i, self.j):
            raise ValueError(
                f"manifest block_nnz shape {self.block_nnz.shape} does not "
                f"match the {self.i}x{self.j} grid"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        ratings: RatingMatrix,
        i: int,
        j: int,
        root: str | Path,
        shuffle_within: bool = True,
        seed: int = 0,
    ) -> "BlockStore":
        """Partition ``ratings`` into an ``i x j`` grid and persist it.

        Each block's samples are written in randomized order
        (``shuffle_within``, one deterministic draw per block from ``seed``)
        so a consumer can replay a shard front-to-back and still get the
        shuffled access pattern batch-Hogwild! assumes (Algorithm 1 line 2
        moved into preprocessing, exactly as the paper does).
        """
        part = GridPartition(ratings, i, j)
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        block_nnz = np.zeros((i, j), dtype=np.int64)
        for bi in range(i):
            for bj in range(j):
                view = part.block(bi, bj)
                idx = view.sample_index
                if shuffle_within and len(idx):
                    idx = idx[rng.permutation(len(idx))]
                rec = np.empty(len(idx), dtype=COO_DTYPE)
                rec["u"] = ratings.rows[idx]
                rec["v"] = ratings.cols[idx]
                rec["r"] = ratings.vals[idx]
                np.save(cls._block_path(root, bi, bj), rec, allow_pickle=False)
                block_nnz[bi, bj] = len(idx)
        meta = {
            "version": _STORE_VERSION,
            "name": ratings.name,
            "i": i,
            "j": j,
            "n_rows": ratings.n_rows,
            "n_cols": ratings.n_cols,
            "nnz": ratings.nnz,
            "seed": seed,
            "shuffle_within": bool(shuffle_within),
            "row_edges": part.row_edges.tolist(),
            "col_edges": part.col_edges.tolist(),
            "block_nnz": block_nnz.tolist(),
        }
        (root / _META_NAME).write_text(json.dumps(meta, indent=2) + "\n")
        return cls(root, meta)

    @classmethod
    def open(cls, root: str | Path) -> "BlockStore":
        """Attach to an existing store by reading its manifest."""
        root = Path(root)
        meta_path = root / _META_NAME
        if not meta_path.exists():
            raise FileNotFoundError(f"no blockstore manifest at {meta_path}")
        return cls(root, json.loads(meta_path.read_text()))

    @staticmethod
    def _block_path(root: Path, bi: int, bj: int) -> Path:
        return root / f"block_{bi:04d}_{bj:04d}.npy"

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return self.i * self.j

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def max_block_nnz(self) -> int:
        """Largest shard, i.e. the staging-buffer capacity a consumer needs."""
        return int(self.block_nnz.max()) if self.n_blocks else 0

    def path(self, bi: int, bj: int) -> Path:
        self._check_coords(bi, bj)
        return self._block_path(self.root, bi, bj)

    def blocks(self) -> Iterator[tuple[int, int]]:
        """All grid coordinates in row-major order."""
        for bi in range(self.i):
            for bj in range(self.j):
                yield (bi, bj)

    def load(self, bi: int, bj: int, mmap: bool = True) -> np.ndarray:
        """One shard's COO records — a read-only memory map by default.

        Under an ambient sanitizer (``--sanitize races``/``all``) every
        mapping is entered in the lifecycle ledger, with the release
        observed through a ``weakref.finalize`` on the returned array —
        CPython refcounting makes the release deterministic at the end of
        :meth:`load_into`, so an un-released mapping at finalize time is a
        genuine pin (``lifecycle-mmap-leak``).
        """
        path = self.path(bi, bj)
        with _OPEN_LOCK:
            if not mmap:
                return np.load(path, allow_pickle=False)
            rec = np.load(path, mmap_mode="r", allow_pickle=False)
        from repro.san.core import active_sanitizer

        san = active_sanitizer()
        if san is not None and san.check_lifecycle:
            import weakref

            tracker = san.lifecycle
            tracker.note_mmap_open(str(path))
            weakref.finalize(rec, tracker.note_mmap_release, str(path))
        return rec

    def load_into(self, bi: int, bj: int, out: np.ndarray) -> int:
        """Stage one shard into a preallocated record buffer; returns nnz.

        This is the "transfer": the shard is mapped and copied into ``out``,
        forcing the page reads *now* (a plain mmap would defer I/O to page
        faults in the middle of compute, defeating the §6.2 overlap).
        """
        rec = self.load(bi, bj, mmap=True)
        n = len(rec)
        if n > len(out):
            raise ValueError(
                f"block ({bi}, {bj}) holds {n} records but the staging "
                f"buffer only {len(out)}"
            )
        np.copyto(out[:n], rec)
        return n

    def reassemble(self) -> RatingMatrix:
        """Concatenate every shard back into one in-memory matrix.

        Sample *order* is the store's block-major (shuffled-within) order,
        not the source order; the sample multiset is exactly the original.
        """
        parts = [self.load(bi, bj, mmap=False) for bi, bj in self.blocks()]
        rec = (
            np.concatenate(parts)
            if parts
            else np.empty(0, dtype=COO_DTYPE)
        )
        return RatingMatrix(
            rows=rec["u"].copy(),
            cols=rec["v"].copy(),
            vals=rec["r"].copy(),
            n_rows=self.n_rows,
            n_cols=self.n_cols,
            name=self.name,
        )

    # ------------------------------------------------------------------
    # work assignment
    # ------------------------------------------------------------------
    def assign(self, n_workers: int) -> list[list[tuple[int, int]]]:
        """Static block-to-worker assignment, balanced by nnz.

        Deterministic longest-processing-time: blocks sorted by descending
        nnz (ties broken by coordinates) each go to the currently lightest
        worker. Every block lands on exactly one worker; workers own their
        lists for every epoch (static sharding, like the batch-Hogwild! lane
        shards — races across workers on shared P/Q are the point).
        """
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        order = sorted(
            self.blocks(), key=lambda b: (-int(self.block_nnz[b[0], b[1]]), b)
        )
        loads = [0] * n_workers
        out: list[list[tuple[int, int]]] = [[] for _ in range(n_workers)]
        for blk in order:
            w = loads.index(min(loads))
            out[w].append(blk)
            loads[w] += int(self.block_nnz[blk[0], blk[1]])
        return out

    def _check_coords(self, bi: int, bj: int) -> None:
        if not (0 <= bi < self.i and 0 <= bj < self.j):
            raise IndexError(
                f"block ({bi}, {bj}) outside ({self.i}, {self.j}) grid"
            )


# ---------------------------------------------------------------------------
# double-buffered prefetch pipeline
# ---------------------------------------------------------------------------
@dataclass
class PrefetchStats:
    """Staging-pipeline counters, published as ``repro.stage.*``.

    ``blocks_loaded`` / ``bytes_loaded`` are loader-side (what crossed the
    "wire"); ``load_seconds`` is time the loader spent inside shard reads;
    ``wait_seconds`` is consumer-side stall — time compute sat idle waiting
    for a shard, i.e. the exposed (un-overlapped) transfer residue that
    :attr:`repro.gpusim.streams.PipelineResult.exposed_transfer` models.
    """

    blocks_loaded: int = 0
    bytes_loaded: int = 0
    load_seconds: float = 0.0
    wait_seconds: float = 0.0

    def merge(self, other: "PrefetchStats") -> None:
        self.blocks_loaded += other.blocks_loaded
        self.bytes_loaded += other.bytes_loaded
        self.load_seconds += other.load_seconds
        self.wait_seconds += other.wait_seconds

    def as_dict(self) -> dict:
        return {
            "blocks_loaded": self.blocks_loaded,
            "bytes_loaded": self.bytes_loaded,
            "load_seconds": self.load_seconds,
            "wait_seconds": self.wait_seconds,
        }

    def publish(self, labels: dict | None = None) -> None:
        """Accumulate into the ambient registry (no-op when none active)."""
        from repro.obs.context import active_registry
        from repro.obs.registry import M

        registry = active_registry()
        if registry is None:
            return
        registry.counter(M.STAGE_BLOCKS_LOADED, labels).inc(self.blocks_loaded)
        registry.counter(M.STAGE_BYTES_LOADED, labels).inc(self.bytes_loaded)
        registry.counter(M.STAGE_LOAD_SECONDS, labels).inc(self.load_seconds)
        registry.counter(M.STAGE_PREFETCH_WAIT_SECONDS, labels).inc(
            self.wait_seconds
        )


class _LoaderFailure:
    """Sentinel carrying a loader-thread exception to the consumer."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


class BlockPrefetcher:
    """Double-buffered shard staging: load block ``b+1`` while ``b`` computes.

    ``depth`` staging buffers (default 2 — one computing, one arriving, the
    paper's two-resident-blocks pipeline) are preallocated to the store's
    largest shard. A background loader thread fills free buffers in sequence
    order; :meth:`__iter__` yields ``((bi, bj), records)`` views in the same
    order, blocking only when the loader is behind (the stall is charged to
    :attr:`PrefetchStats.wait_seconds`). The yielded record array is a view
    into a staging buffer, valid until the next iteration step.

    Under an ambient tracer (:func:`repro.obs.activate`) it also records,
    on worker ``wid``'s thread lane, one ``stage.load`` span per shard read
    (loader side) and a ``stage.stall`` span whenever the consumer blocks
    longer than :data:`STALL_SPAN_MIN_S` — the visible form of the
    exposed-transfer residue. Each is one list append under the GIL.

    The loader runs in a copy of the consumer's :mod:`contextvars`
    context, so its shard loads see the consumer's ambient sanitizer (the
    mmap lifecycle ledger). Under a numeric sanitizer every staged block is
    checked before it is yielded; a bad one raises a
    :class:`~repro.san.errors.SanitizerError` naming worker ``wid``.

    One prefetcher serves one consumer; create one per worker.
    """

    def __init__(
        self,
        store: BlockStore,
        sequence: Iterable[tuple[int, int]],
        depth: int = 2,
        wid: int = 0,
    ) -> None:
        if depth < 1:
            raise ValueError(f"prefetch depth must be >= 1, got {depth}")
        self.store = store
        self.sequence = list(sequence)
        self.depth = depth
        self.wid = wid
        capacity = max(store.max_block_nnz, 1)
        self._buffers = [
            np.empty(capacity, dtype=COO_DTYPE) for _ in range(depth)
        ]
        self.stats = PrefetchStats()

    def __iter__(self) -> Iterator[tuple[tuple[int, int], np.ndarray]]:
        # imported here: at module level they would load repro.obs from
        # inside this module's own import
        from repro.obs.context import active_tracer
        from repro.obs.tracer import THREAD_TID_BASE, WALL_PID
        from repro.san.core import active_sanitizer

        san = active_sanitizer()
        sentry = san.numeric if san is not None and san.check_numeric else None
        stats = self.stats
        tracer = active_tracer()
        lane = THREAD_TID_BASE + self.wid
        slots: queue.Queue = queue.Queue()
        ready: queue.Queue = queue.Queue()
        stop = threading.Event()
        for slot in range(self.depth):
            slots.put(slot)
        store, sequence, buffers = self.store, self.sequence, self._buffers

        def loader() -> None:
            try:
                for bi, bj in sequence:
                    slot = slots.get()
                    if stop.is_set() or slot < 0:
                        return
                    t0 = time.perf_counter()
                    n = store.load_into(bi, bj, buffers[slot])
                    load_s = time.perf_counter() - t0
                    stats.load_seconds += load_s
                    stats.blocks_loaded += 1
                    stats.bytes_loaded += n * SAMPLE_BYTES
                    if tracer is not None:
                        tracer.add_span(
                            f"stage.load b({bi},{bj})", t0 - tracer.origin,
                            load_s, pid=WALL_PID, tid=lane, cat="stage",
                            args={"bytes": n * SAMPLE_BYTES},
                        )
                    ready.put((slot, (bi, bj), n))
            except BaseException as exc:  # pragma: no cover - defensive
                ready.put(_LoaderFailure(exc))

        # the consumer's context, not the empty one a new thread starts in
        thread = threading.Thread(
            target=contextvars.copy_context().run, args=(loader,),
            name="block-prefetch", daemon=True,
        )
        thread.start()
        try:
            for _ in range(len(self.sequence)):
                t0 = time.perf_counter()
                item = ready.get()
                wait_s = time.perf_counter() - t0
                stats.wait_seconds += wait_s
                if tracer is not None and wait_s >= STALL_SPAN_MIN_S:
                    tracer.add_span(
                        "stage.stall", t0 - tracer.origin, wait_s,
                        pid=WALL_PID, tid=lane, cat="stage",
                    )
                if isinstance(item, _LoaderFailure):
                    raise item.exc
                slot, coords, n = item
                if sentry is not None:
                    # verify the staged ratings are finite before compute
                    # consumes them (catches corrupt shards at the source)
                    sentry.check_block(buffers[slot]["r"][:n], coords,
                                       wid=self.wid)
                yield coords, buffers[slot][:n]
                slots.put(slot)
            thread.join()
        finally:
            stop.set()
            slots.put(-1)  # unblock a loader waiting for a free buffer
            thread.join(timeout=5.0)
