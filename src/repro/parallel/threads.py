"""Lock-free batch-Hogwild! epochs on real OS threads.

``CuMFSGD(n_threads=N)`` (or ``store=...``) runs its epochs here. Each
thread owns a column shard (:meth:`EpochPlan.shard`) of the plan the
serial executor replays (:meth:`BatchHogwild.compiled_plan`) and walks every
wave, running only its lanes on the *shared* P and Q, unlocked: within a
wave the threads race for real (§5.1; Hogwild! [44]). A shard is one
``backend.replay`` call; the compiled ``c`` backend holds no GIL for its
length, so the threads compute at once, which the GIL-bound NumPy kernel
never allows. One thread spans every live lane, so ``n_threads=1`` is
bit-identical to serial on the same backend.

Out of core (``store=``) the ratings stay on disk in a
:class:`~repro.data.blockstore.BlockStore`. Each thread owns an
nnz-balanced set of the store's grid blocks, visits them in an order it
draws afresh every epoch from its own ``SeedSequence(seed).spawn(n_threads)``
stream, and streams them through its own double-buffered
:class:`~repro.data.blockstore.BlockPrefetcher`: the next block loads
while this one computes (§6.2). Each block is one
``backend.serial_update`` call, the worker updating its samples serially
(§5.1) -- on ``c``, one GIL-free foreign call per block.
"""

from __future__ import annotations

import contextvars
import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np

from repro.backends import get_backend, replay_waves
from repro.core.hogwild import BatchHogwild
from repro.core.kernels import WaveWorkspace
from repro.core.model import FactorModel
from repro.data.container import RatingMatrix
from repro.metrics.rmse import rmse  # noqa: F401 -- perfbench/layers.py wraps threads.rmse
from repro.obs.context import active_registry, active_tracer
from repro.obs.hooks import KernelEvent, TrainerHooks, resolve_hooks
from repro.obs.profiler import StallReport
from repro.obs.tracer import THREAD_TID_BASE, WALL_PID, Tracer
from repro.san.core import active_sanitizer
from repro.sched.plan import PlanShard

if TYPE_CHECKING:  # pragma: no cover
    from repro.data.blockstore import BlockStore, PrefetchStats

__all__ = ["ThreadedHogwild"]

#: Shared names worker threads may mutate (``race-shared-write`` lint):
#: ``counts``/``staged`` are write-disjoint per thread id, ``errors.append``
#: is GIL-atomic (as is ``tracer.add_span``, one list append). P and Q
#: races are the point of Hogwild! (in the kernel).
SHARED_WRITE_OK = ("counts", "errors", "staged")


def _replay_shard(ws, backend, shard: PlanShard, p, q, rows, cols, vals,
                  lr, lam_p, lam_q, san=None, wid: int = 0,
                  epoch: int = 0) -> int:
    """One epoch of one worker's plan shard, the kernel entry of the
    threads executor; returns the updates made. Unobserved, the backend
    replays the whole shard (``c``: one GIL-free foreign call); under a
    sanitizer the shard runs through
    :func:`~repro.backends.base.replay_waves` over ``backend.bind(ws)``
    as worker ``wid``, as ``BatchHogwild.run_epoch`` does when observed.
    """
    if san is None:
        return backend.replay(ws, shard, p, q, rows, cols, vals,
                              lr, lam_p, lam_q)
    return replay_waves(ws, backend.bind(ws), shard, p, q, rows, cols, vals,
                        lr, lam_p, lam_q, san=san, wid=wid, epoch=epoch)


def _replay_blocks(ws, backend, prefetcher, p, q, lr, lam_p, lam_q,
                   max_wave, san=None, wid=0, epoch=0) -> int:
    """One epoch of one thread's out-of-core blocks; returns the updates
    made. Blocks arrive through the prefetcher (the next one loads while
    this one computes) and each is one ``backend.serial_update`` call, the
    paper's chunk size capping the NumPy reference's conflict-free
    segments. With a sanitizer attached, each block's coverage lands in the
    shadow access log for the exactly-once audit.
    """
    updates = 0
    for seq, (_, rec) in enumerate(prefetcher):
        rows = rec["u"]
        cols = rec["v"]
        backend.serial_update(p, q, rows, cols, rec["r"], lr, lam_p, lam_q,
                              max_wave=max_wave, workspace=ws)
        if san is not None:
            san.block_executed(wid, epoch, seq, rows, cols)
        updates += len(rec)
    return updates


class ThreadedHogwild:
    """Batch-Hogwild! epochs over ``n_threads`` OS threads, non-deterministic
    for ``n_threads > 1``. ``workers``/``f`` shape the shared epoch plan.
    A ``store`` (:class:`~repro.data.blockstore.BlockStore`) streams the
    ratings from disk instead, each thread replaying its own blocks
    serially (``f`` caps the NumPy reference's segments). One
    ``on_kernel`` event per thread per epoch. Each thread appends one
    ``compute`` span per epoch to the ambient tracer (a private one when
    none is active), the run's only timing record: when the
    :meth:`session` ends its spans become :attr:`stall_report`, and
    ``repro.thread.*`` (and, out of core, ``repro.stage.*``) metrics go to
    the ambient registry."""

    def __init__(
        self,
        n_threads: int = 4,
        seed: int = 0,
        workers: int = 128,
        f: int = 256,
        backend: object | None = None,
        store: BlockStore | None = None,
    ) -> None:
        if min(n_threads, workers, f) <= 0:
            raise ValueError("n_threads, workers, f must be positive")
        if n_threads > workers and store is None:
            raise ValueError(f"n_threads={n_threads} exceeds the plan's "
                             f"{workers} worker lanes")
        self.n_threads = n_threads
        self.seed = seed
        self.workers = workers
        self.f = f
        #: kernel backend (name / BackendType / instance; None = numpy)
        self.backend = backend
        self.store = store
        #: number of updates each thread performed in the last epoch
        self.thread_updates: list[int] = []
        #: phase attribution of the last session
        self.stall_report: StallReport | None = None
        #: staging totals of the last out-of-core session
        self.stage_stats: PrefetchStats | None = None

    @contextmanager
    def session(self, model: FactorModel, train: RatingMatrix | None):
        """A run's state: backend, plan source, per-thread workspaces and
        trace lanes; folded into stall report and registry at the end."""
        self._backend = get_backend(self.backend)
        self._workspaces = [WaveWorkspace() for _ in range(self.n_threads)]
        if self.store is None:
            self._plans = BatchHogwild(workers=self.workers, f=self.f,
                                       seed=self.seed)
        else:
            from repro.data.blockstore import PrefetchStats

            self._blocks = self.store.assign(self.n_threads)
            self._rngs = [np.random.default_rng(s) for s in
                          np.random.SeedSequence(self.seed).spawn(self.n_threads)]
            self.stage_stats = PrefetchStats()
        # an empty Tracer is falsy (__len__), so test for None
        tracer = active_tracer()
        if tracer is None:
            tracer = Tracer()
        for tid in range(self.n_threads):  # once, before any thread runs
            tracer.name_thread(WALL_PID, THREAD_TID_BASE + tid, f"thread:{tid}")
        self._tracer = tracer
        first = len(tracer)  # one collector can hold several fits
        self._totals = [0] * self.n_threads
        self._epochs_run = 0
        yield model
        self.stall_report = StallReport.from_trace(
            "threads" if self.store is None else "threads_ooc",
            tracer.events[first:])
        registry = active_registry()
        if registry is not None:
            from repro.obs.registry import M

            registry.gauge(M.THREAD_WORKERS).set(self.n_threads)
            for tid, count in enumerate(self._totals):
                labels = {"thread": tid}
                registry.counter(M.THREAD_WORKER_UPDATES, labels).inc(count)
            self.stall_report.publish(registry)
            if self.stage_stats is not None:
                self.stage_stats.publish()

    def run_epoch(self, model: FactorModel, ratings: RatingMatrix | None,
                  lr: float, lam_p: float, lam_q: float | None = None,
                  hooks: TrainerHooks | None = None) -> int:
        """One epoch inside :meth:`session`: each thread replays its shard,
        or out of core streams its blocks."""
        lam_q = lam_p if lam_q is None else lam_q
        hooks = resolve_hooks(hooks)
        self._epochs_run += 1
        if self.store is None:
            shards = self._plans.compiled_plan(ratings.nnz).shard(self.n_threads)
            counts = self._epoch(model, ratings, shards, np.float32(lr),
                                 np.float32(lam_p), np.float32(lam_q))
        else:
            counts = self._stream(model, np.float32(lr), np.float32(lam_p),
                                  np.float32(lam_q))
        san = active_sanitizer()
        if san is not None:
            san.epoch_end(model.p, model.q, epoch=self._epochs_run)
        if hooks.active:
            for tid, count in enumerate(counts):
                if self.store is None:  # one launch per live wave
                    event = KernelEvent(
                        name="threads.shard", n_updates=count,
                        n_waves=int(np.count_nonzero(shards[tid].lengths)))
                else:  # one launch per block
                    event = KernelEvent(name="threads.blocks", n_updates=count,
                                        n_waves=len(self._blocks[tid]))
                hooks.on_kernel(event)
        self.thread_updates = counts
        self._totals = [a + b for a, b in zip(self._totals, counts)]
        return sum(counts)

    def _epoch(self, model, ratings, shards, lr, lam_p, lam_q) -> list[int]:
        """Dispatch one thread per shard and join them; per-thread updates."""
        epoch, tracer = self._epochs_run, self._tracer
        origin = tracer.origin
        counts = [0] * self.n_threads
        errors: list[BaseException] = []
        backend, workspaces = self._backend, self._workspaces
        san = active_sanitizer()
        if san is not None:  # seal last epoch's views before the rebinds
            san.begin_epoch(epoch=epoch)
        args = (model.p, model.q, ratings.rows, ratings.cols, ratings.vals,
                lr, lam_p, lam_q)
        dispatched = time.perf_counter()

        def work(tid: int) -> None:
            try:
                t0 = time.perf_counter()
                counts[tid] = n = _replay_shard(
                    workspaces[tid], backend, shards[tid], *args, san=san,
                    wid=tid, epoch=epoch)
                t1 = time.perf_counter()
                # spawn = dispatch-to-entry latency, compute = gather + replay
                tracer.add_span(
                    f"epoch {epoch} compute", t0 - origin, t1 - t0,
                    pid=WALL_PID, tid=THREAD_TID_BASE + tid, cat="compute",
                    args={"epoch": epoch, "updates": n,
                          "spawn": t0 - dispatched})
            except BaseException as exc:  # pragma: no cover - defensive
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(tid,), name=f"hogwild-{tid}")
                   for tid in range(self.n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:  # pragma: no cover - defensive
            raise errors[0]
        return counts

    def _stream(self, model, lr, lam_p, lam_q) -> list[int]:
        """One out-of-core epoch: each thread streams its blocks, in its
        own fresh order, through its own prefetcher; per-thread updates."""
        from repro.data.blockstore import BlockPrefetcher

        epoch, tracer = self._epochs_run, self._tracer
        origin = tracer.origin
        counts = [0] * self.n_threads
        staged: list[PrefetchStats | None] = [None] * self.n_threads
        errors: list[BaseException] = []
        backend, workspaces, store = self._backend, self._workspaces, self.store
        blocks, rngs, max_wave = self._blocks, self._rngs, self.f
        p, q = model.p, model.q
        san = active_sanitizer()
        dispatched = time.perf_counter()

        def stream(tid: int) -> None:
            try:
                t0 = time.perf_counter()
                own = blocks[tid]
                prefetcher = BlockPrefetcher(
                    store, [own[i] for i in rngs[tid].permutation(len(own))],
                    wid=tid)
                counts[tid] = n = _replay_blocks(
                    workspaces[tid], backend, prefetcher, p, q, lr, lam_p,
                    lam_q, max_wave, san=san, wid=tid, epoch=epoch)
                t1 = time.perf_counter()
                stats = staged[tid] = prefetcher.stats
                # the block loop's wall time is prefetch stall plus compute
                tracer.add_span(
                    f"epoch {epoch} compute", t0 - origin, t1 - t0,
                    pid=WALL_PID, tid=THREAD_TID_BASE + tid, cat="compute",
                    args={"epoch": epoch, "updates": n,
                          "spawn": t0 - dispatched,
                          "stall": stats.wait_seconds})
            except BaseException as exc:
                errors.append(exc)

        # one context copy per thread (a Context admits one thread at a
        # time): the caller's sanitizer and tracer reach each thread's
        # block checks, shard loads and stage spans
        threads = [threading.Thread(target=contextvars.copy_context().run,
                                    args=(stream, tid), name=f"hogwild-{tid}")
                   for tid in range(self.n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        for stats in staged:
            self.stage_stats.merge(stats)
        return counts
