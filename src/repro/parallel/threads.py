"""Lock-free batch-Hogwild! on real OS threads.

Each thread owns a column shard (:meth:`EpochPlan.shard`) of the plan the
serial and process executors replay (:meth:`BatchHogwild.compiled_plan`) and
walks every wave, running only its lanes on the *shared* P and Q, unlocked:
within a wave the threads race for real (§5.1; Hogwild! [44]). One thread
spans every live lane, so ``n_threads=1`` is bit-identical to serial.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np

from repro.core.hogwild import BatchHogwild
from repro.core.kernels import UPDATE_ERRSTATE, WaveWorkspace
from repro.core.lr_schedule import LearningRateSchedule, NomadSchedule
from repro.core.model import FactorModel
from repro.core.trainer import TrainHistory, run_epochs
from repro.data.container import RatingMatrix
from repro.metrics.rmse import rmse
from repro.obs.context import active_registry, active_tracer
from repro.obs.hooks import KernelEvent, TrainerHooks, resolve_hooks
from repro.obs.profiler import StallReport, WorkerPhases
from repro.obs.registry import M
from repro.obs.relay import THREAD_TID_BASE, WorkerTelemetry, merge_records
from repro.obs.tracer import WALL_PID
from repro.san.core import active_sanitizer
from repro.sched.plan import PlanShard

__all__ = ["ThreadedHogwild"]

#: Shared names worker threads may mutate (``race-shared-write`` lint):
#: ``counts``/``phases`` are write-disjoint per thread id, ``errors.append``
#: is GIL-atomic. P and Q races are the point of Hogwild! (in the kernel).
SHARED_WRITE_OK = ("counts", "errors", "phases")


def _replay_shard(ws, wave_update, shard: PlanShard, p, q, rows, cols, vals,
                  lr, lam_p, lam_q) -> int:
    """One epoch of one worker's plan shard, the hot loop of both parallel
    executors (lint ``HOT_FUNCTIONS``); returns the updates made. As in
    ``BatchHogwild.run_epoch``: one ``bind_plan`` gather, then one kernel
    launch per wave over its live lanes (padding only trims from the right).
    """
    rows_w, cols_w, vals_w = ws.bind_plan(shard, rows, cols, vals)
    width = shard.width
    updates = 0
    with np.errstate(**UPDATE_ERRSTATE):
        for wr, wc, wv, w in zip(rows_w, cols_w, vals_w, shard.lengths.tolist()):
            if w != width:
                if not w:
                    continue
                wr = wr[:w]
                wc = wc[:w]
                wv = wv[:w]
            wave_update(p, q, wr, wc, wv, lr, lam_p, lam_q)
            updates += w
    return updates


class ThreadedHogwild:
    """Batch-Hogwild! SGD over ``n_threads`` OS threads, non-deterministic
    for ``n_threads > 1``. ``workers``/``f`` shape the shared epoch plan.
    One ``on_kernel`` event per thread shard per epoch; ``repro.thread.*``
    metrics go to the ambient registry."""

    def __init__(
        self,
        k: int = 32,
        n_threads: int = 4,
        lam: float = 0.05,
        schedule: LearningRateSchedule | None = None,
        seed: int = 0,
        workers: int = 128,
        f: int = 256,
        scale_factor: float = 1.0,
        backend: object | None = None,
    ) -> None:
        if min(k, n_threads, workers, f) <= 0:
            raise ValueError("k, n_threads, workers, f must be positive")
        if n_threads > workers:
            raise ValueError(f"n_threads={n_threads} exceeds the plan's "
                             f"{workers} worker lanes")
        self.k = k
        self.n_threads = n_threads
        self.lam = lam
        self.schedule = schedule or NomadSchedule()
        self.seed = seed
        self.workers = workers
        self.f = f
        self.scale_factor = scale_factor
        #: kernel backend (name / BackendType / instance; None = numpy)
        self.backend = backend
        self.model: FactorModel | None = None
        self.history: TrainHistory | None = None
        #: number of updates each thread performed in the last epoch
        self.thread_updates: list[int] = []
        #: phase attribution of the last :meth:`fit`
        self.stall_report: StallReport | None = None

    @contextmanager
    def _session(self, model: FactorModel, train: RatingMatrix):
        """A fit's state: plan source, per-thread workspaces and kernels,
        telemetry; folded into tracer, stall report and registry at the end."""
        from repro.backends import get_backend

        backend = get_backend(self.backend)
        self._plans = BatchHogwild(workers=self.workers, f=self.f, seed=self.seed)
        self._workspaces = [WaveWorkspace() for _ in range(self.n_threads)]
        self._kernels = [backend.bind(ws) for ws in self._workspaces]
        # one intp cast shared by every workspace (each would cache its own)
        self._ids = (train.rows.astype(np.intp), train.cols.astype(np.intp))
        tracer = active_tracer()
        self._tele = [] if tracer is None else [
            WorkerTelemetry(t, origin=tracer.origin) for t in range(self.n_threads)]
        self._phases = [WorkerPhases(tid, 0.0, {"spawn": 0.0, "compute": 0.0})
                        for tid in range(self.n_threads)]
        self._totals = [0] * self.n_threads
        self._epochs_run = 0
        yield model
        if self._tele:
            merge_records(tracer, [r for wt in self._tele for r in wt.drain()],
                          label="thread", pid=WALL_PID, tid_base=THREAD_TID_BASE)
        self.stall_report = StallReport("threads", self._phases)
        registry = active_registry()
        if registry is not None:
            registry.gauge(M.THREAD_WORKERS).set(self.n_threads)
            for tid, count in enumerate(self._totals):
                labels = {"thread": tid}
                registry.counter(M.THREAD_WORKER_UPDATES, labels).inc(count)
            self.stall_report.publish(registry)

    def run_epoch(self, model: FactorModel, ratings: RatingMatrix, lr: float,
                  lam_p: float, lam_q: float | None = None,
                  hooks: TrainerHooks | None = None) -> int:
        """One epoch inside :meth:`fit`: each thread replays its shard."""
        lam_q = lam_p if lam_q is None else lam_q
        hooks = resolve_hooks(hooks)
        self._epochs_run += 1
        shards = self._plans.compiled_plan(ratings.nnz).shard(self.n_threads)
        counts = self._epoch(model, ratings.vals, shards, np.float32(lr),
                             np.float32(lam_p), np.float32(lam_q))
        san = active_sanitizer()
        if san is not None:
            san.epoch_end(model.p, model.q, epoch=self._epochs_run)
        if hooks.active:
            for shard, count in zip(shards, counts):
                hooks.on_kernel(KernelEvent(
                    name="threads.shard", n_updates=count,
                    n_waves=int(np.count_nonzero(shard.lengths))))
        self.thread_updates = counts
        self._totals = [a + b for a, b in zip(self._totals, counts)]
        return sum(counts)

    def _epoch(self, model, vals, shards, lr, lam_p, lam_q) -> list[int]:
        """Dispatch one thread per shard and join them; per-thread updates."""
        epoch, phases, tele = self._epochs_run, self._phases, self._tele
        counts = [0] * self.n_threads
        errors: list[BaseException] = []
        kernels = self._kernels
        san = active_sanitizer()
        if san is not None:  # log every wave at (worker, epoch, wave)
            kernels = [san.wave_kernel(kernel, wid=tid, epoch=epoch)
                       for tid, kernel in enumerate(kernels)]
        args = (model.p, model.q, *self._ids, vals, lr, lam_p, lam_q)
        dispatched = time.perf_counter()

        def work(tid: int) -> None:
            try:
                t0 = time.perf_counter()
                counts[tid] = n = _replay_shard(
                    self._workspaces[tid], kernels[tid], shards[tid], *args)
                t1 = time.perf_counter()
                # spawn = dispatch-to-entry latency, compute = gather + replay
                phases[tid].seconds["spawn"] += t0 - dispatched
                phases[tid].seconds["compute"] += t1 - t0
                phases[tid].wall_seconds += t1 - dispatched
                if tele:
                    tele[tid].add_span(
                        f"epoch {epoch} compute", t0 - tele[tid].origin, t1 - t0,
                        cat="compute", args={"epoch": epoch, "updates": n})
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

    def fit(self, train: RatingMatrix, epochs: int = 10,
            test: RatingMatrix | None = None, target_rmse: float | None = None,
            hooks: TrainerHooks | None = None) -> TrainHistory:
        self.model = FactorModel.initialize(
            train.n_rows, train.n_cols, self.k, seed=self.seed,
            scale_factor=self.scale_factor,
        )
        self.history = run_epochs(
            self, self.model, train, epochs, schedule=self.schedule,
            lam=self.lam, scheme="threaded-hogwild", k=self.k, test=test,
            target_rmse=target_rmse, hooks=hooks, session=self._session,
            extras=lambda: {"n_threads": self.n_threads,
                            "thread_updates": list(self.thread_updates)},
        )
        return self.history

    def score(self, ratings: RatingMatrix) -> float:
        if self.model is None:
            raise RuntimeError("fit() first")
        p, q = self.model.as_float32()
        return rmse(p, q, ratings)
