"""Lock-free batch-Hogwild! epochs on real OS threads.

``CuMFSGD(n_threads=N)`` (or ``store=...``) runs its epochs here. Each
thread owns a column shard (:meth:`EpochPlan.shard`) of the plan the
serial executor replays (:meth:`BatchHogwild.compiled_plan`) and walks every
wave, running only its lanes on the *shared* P and Q, unlocked: within a
wave the threads race for real (§5.1; Hogwild! [44]). A shard is one
``backend.replay`` call; the compiled ``c`` backend holds no GIL for its
length, so the threads compute at once, which the GIL-bound NumPy kernel
never allows. One thread spans every live lane, so ``n_threads=1`` is
bit-identical to serial on the same backend, and the kernel events the
dispatching thread reads off the plan after the join are serial's.

Out of core (``store=``) the ratings stay on disk in a
:class:`~repro.data.blockstore.BlockStore`. Each thread owns an
nnz-balanced set of the store's grid blocks, visits them in an order it
draws afresh every epoch from its own ``SeedSequence(seed).spawn(n_threads)``
stream, and streams them through its own double-buffered
:class:`~repro.data.blockstore.BlockPrefetcher`: the next block loads
while this one computes (§6.2). Each block is one
``backend.serial_update`` call, the worker updating its samples serially
(§5.1) -- on ``c``, one GIL-free foreign call per block.

Every epoch hands its per-thread work to
:func:`~repro.parallel.dispatch.run_threads`, the one place worker
threads start (the wavefront scheduler's too).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING

import numpy as np

from repro.backends import get_backend
from repro.core.hogwild import BatchHogwild
from repro.core.kernels import WaveWorkspace
from repro.core.model import FactorModel
from repro.data.container import RatingMatrix
from repro.metrics.rmse import rmse  # noqa: F401 -- perfbench/layers.py wraps threads.rmse
from repro.obs.context import active_registry, active_tracer
from repro.obs.hooks import (KernelEvent, TrainerHooks, emit_plan_events,
                             resolve_hooks)
from repro.obs.profiler import StallReport
from repro.obs.tracer import THREAD_TID_BASE, WALL_PID, Tracer
from repro.parallel.dispatch import run_threads
from repro.san.core import active_sanitizer
from repro.sched.plan import PlanShard

if TYPE_CHECKING:  # pragma: no cover
    from repro.data.blockstore import BlockStore, PrefetchStats

__all__ = ["ThreadedHogwild"]

#: Shared names worker threads may mutate (``race-shared-write`` lint):
#: ``counts``/``staged`` are write-disjoint per thread id
#: (``tracer.add_span`` is one GIL-atomic list append). P and Q races are
#: the point of Hogwild! (in the kernel).
SHARED_WRITE_OK = ("counts", "staged")


def _replay_shard(ws, backend, shard: PlanShard, p, q, rows, cols, vals,
                  lr, lam_p, lam_q, san=None, wid: int = 0,
                  epoch: int = 0) -> int:
    """One epoch of one worker's plan shard, the kernel entry of the
    threads executor: one ``backend.replay`` call (``c``: one GIL-free
    foreign call, sanitized or not), which a sanitizer ``san`` observes as
    worker ``wid``; returns the updates made.
    """
    return backend.replay(ws, shard, p, q, rows, cols, vals, lr, lam_p,
                          lam_q, san=san, wid=wid, epoch=epoch)


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
    serially (``f`` caps the NumPy reference's segments). Hooks receive
    the plan's waves (out of core one event per thread) per epoch. Each
    thread appends one ``compute`` span per epoch to the ambient tracer
    (a private one when none is active), the run's only timing record:
    when the :meth:`session` ends its spans become :attr:`stall_report`,
    and ``repro.thread.*`` (and, out of core, ``repro.stage.*``) metrics
    go to the ambient registry."""

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
        plan = shards = None
        if self.store is None:
            plan = self._plans.compiled_plan(ratings.nnz)
            shards = plan.shard(self.n_threads)
        counts = self._epoch(model, ratings, shards, np.float32(lr),
                             np.float32(lam_p), np.float32(lam_q))
        if plan is not None:  # the waves every thread's lanes ran
            emit_plan_events(hooks, plan, ratings.rows, ratings.cols)
        elif hooks.active:  # one launch per block
            for tid, count in enumerate(counts):
                hooks.on_kernel(KernelEvent("threads.blocks", count,
                                            n_waves=len(self._blocks[tid])))
        self.thread_updates = counts
        self._totals = [a + b for a, b in zip(self._totals, counts)]
        return sum(counts)

    def epoch_extras(self) -> dict:
        """The thread count and each thread's updates in the last epoch."""
        return {"n_threads": self.n_threads,
                "thread_updates": list(self.thread_updates)}

    def _epoch(self, model, ratings, shards, lr, lam_p, lam_q) -> list[int]:
        """Run one thread per shard, or out of core per block set, through
        :func:`run_threads`, between the active sanitizer's epoch bracket;
        returns the per-thread updates. Each thread appends its one
        ``compute`` span: ``spawn`` is its dispatch-to-entry latency and,
        out of core, ``stall`` the part of its block loop spent waiting on
        its prefetcher."""
        epoch, tracer = self._epochs_run, self._tracer
        origin = tracer.origin
        counts = [0] * self.n_threads
        backend, workspaces = self._backend, self._workspaces
        p, q = model.p, model.q
        san = active_sanitizer()
        if san is not None:  # seal last epoch's views before the rebinds
            san.begin_epoch(epoch=epoch)
        if self.store is None:
            data = (ratings.rows, ratings.cols, ratings.vals)

            def replay(tid: int) -> tuple[int, dict]:
                return _replay_shard(
                    workspaces[tid], backend, shards[tid], p, q, *data, lr,
                    lam_p, lam_q, san=san, wid=tid, epoch=epoch), {}
        else:
            from repro.data.blockstore import BlockPrefetcher

            store, blocks, rngs = self.store, self._blocks, self._rngs
            staged: list[PrefetchStats | None] = [None] * self.n_threads

            def replay(tid: int) -> tuple[int, dict]:
                own = blocks[tid]
                prefetcher = BlockPrefetcher(
                    store, [own[i] for i in rngs[tid].permutation(len(own))],
                    wid=tid)
                n = _replay_blocks(workspaces[tid], backend, prefetcher, p, q,
                                   lr, lam_p, lam_q, self.f, san=san, wid=tid,
                                   epoch=epoch)
                stats = staged[tid] = prefetcher.stats
                return n, {"stall": stats.wait_seconds}

        dispatched = time.perf_counter()

        def work(tid: int) -> None:
            t0 = time.perf_counter()
            n, extra = replay(tid)
            t1 = time.perf_counter()
            counts[tid] = n
            tracer.add_span(
                f"epoch {epoch} compute", t0 - origin, t1 - t0,
                pid=WALL_PID, tid=THREAD_TID_BASE + tid, cat="compute",
                args={"epoch": epoch, "updates": n,
                      "spawn": t0 - dispatched, **extra})

        run_threads(self.n_threads, work, "hogwild")
        if san is not None:
            san.epoch_end(p, q, epoch=epoch)
        if self.store is not None:
            for stats in staged:
                self.stage_stats.merge(stats)
        return counts
