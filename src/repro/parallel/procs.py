"""Lock-free Hogwild! on OS processes over shared-memory feature matrices.

:class:`ProcessHogwild` is the real-parallelism counterpart of the simulated
executors in :mod:`repro.core` and the threads of
:mod:`repro.parallel.threads`: P and Q live in
:mod:`multiprocessing.shared_memory` segments, wrapped by
:meth:`repro.core.model.FactorModel.from_buffers` so every worker process
attaches zero-copy ndarray views and races on them for real — no locks, lost
updates allowed, exactly the HOGWILD! [Niu et al., 2011] semantics §5.1
builds on. Each worker is the process analogue of the paper's GPU worker
pool: it owns a static shard of the compiled
:class:`~repro.sched.plan.EpochPlan` (a contiguous run of worker lanes, cut
by :meth:`EpochPlan.shard`) and replays it through its own private
:class:`~repro.core.kernels.WaveWorkspace` — the shard entry
:func:`repro.parallel.threads._replay_shard` that the thread executor runs
too. With ``n_procs=1`` the single shard spans the full plan and execution
is bit-identical to :class:`repro.core.hogwild.BatchHogwild` on the same
backend (pinned by ``tests/test_parallel_procs.py``).

Out-of-core mode swaps the in-memory rating shards for a
:class:`~repro.data.blockstore.BlockStore`: each worker owns a static,
nnz-balanced set of grid blocks and streams them through a double-buffered
:class:`~repro.data.blockstore.BlockPrefetcher`, overlapping shard load
("transfer") with SGD compute the way §6.2's CUDA streams overlap H2D copies
with kernels.

Seeding: worker randomness derives from ``np.random.SeedSequence(seed)``
``.spawn(n_procs)`` — every worker gets an independent, collision-free
stream that is reproducible per (seed, worker id) regardless of ``n_procs``
or start method. The epoch *schedule* (plan and permutation RNG) lives in
the parent and comes from :meth:`BatchHogwild.compiled_plan` itself.

Synchronization is two barriers per epoch (dispatch and completion); between
them, nothing synchronizes — that is the point. Per-worker update counts,
staging stats, and control scalars live in small shared arrays with
write-disjoint slots (one per worker id).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import shutil
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from repro.core.hogwild import BatchHogwild
from repro.core.kernels import WaveWorkspace
from repro.core.lr_schedule import LearningRateSchedule, NomadSchedule
from repro.core.model import FactorModel
from repro.core.trainer import TrainHistory, run_epochs
from repro.data.blockstore import BlockPrefetcher, BlockStore, PrefetchStats
from repro.data.container import RatingMatrix
from repro.metrics.rmse import rmse
from repro.obs.context import active_tracer
from repro.obs.hooks import TrainerHooks
from repro.obs.profiler import (
    BARRIER_WAIT_BUCKETS,
    StallReport,
    WorkerPhases,
)
from repro.obs.relay import TraceRelay, WorkerTelemetry
from repro.parallel.threads import _replay_shard
from repro.san.core import (
    activate_sanitizer,
    active_sanitizer,
    sanitizer_from_mode,
)
from repro.san.errors import SanitizerError
from repro.san.lifecycle import track_shm
from repro.san.races import dump_log, load_spools
from repro.sched.plan import EpochPlan, PlanShard

__all__ = ["ProcessHogwild"]

#: Shared names with sanctioned cross-worker writes (the process-level
#: analogue of the ``race-shared-write`` thread audit): ``counts``,
#: ``stage``, and ``phases`` are write-disjoint shared arrays (one
#: slot/row per worker id), ``ctl`` is written by the parent between
#: barriers and only read by workers (except the error flag,
#: last-writer-wins by design). ``failures``/``done`` are the barrier
#: waiter thread's hand-off to the watching parent (list append is
#: GIL-atomic, ``Event.set`` is thread-safe). P and Q races are the
#: whole point of Hogwild! and happen inside the kernels.
SHARED_WRITE_OK = ("counts", "ctl", "stage", "phases", "failures", "done")

#: control-array slots: command word, epoch hyperparameters, error flag,
#: current epoch number (for span labelling)
_CTL_SLOTS = 6
_CMD, _LR, _LAM_P, _LAM_Q, _ERR, _EPOCH = range(_CTL_SLOTS)
_CMD_RUN, _CMD_EXIT = 0.0, 1.0

#: columns of the per-worker staging-stats array
_STAGE_FIELDS = 4  # blocks, bytes, load_seconds, wait_seconds

#: columns of the per-worker phase-accounting array (the raw material of
#: :class:`repro.obs.profiler.StallReport`). All slots are cumulative
#: across epochs except EPOCH_BARRIER, which holds the *last* epoch's
#: dispatch-barrier wait (read by the parent between barriers, where it is
#: stable, to feed the per-worker barrier-wait histograms).
_PHASE_FIELDS = 6
(_PH_SPAWN, _PH_BARRIER, _PH_COMPUTE, _PH_PREFETCH, _PH_WALL,
 _PH_EPOCH_BARRIER) = range(_PHASE_FIELDS)

#: parent-side timeout for the completion barrier: generous enough for any
#: realistic epoch, finite so a crashed worker surfaces as BrokenBarrierError
#: instead of a hang
_EPOCH_TIMEOUT_S = 600.0

#: how long the parent waits on a barrier abort, and then on the released
#: workers' exit, after a worker died: an unwedged abort takes microseconds
_ABORT_WAIT_S = 2.0


def _abort_barrier(barrier) -> None:
    """Break ``barrier`` for every party parked in it, without hanging.

    Releasing an ``mp.Barrier`` — the last arrival's wait or an abort —
    notifies every parked party and waits for each to wake. A worker
    killed while parked never wakes, so the releaser blocks forever holding
    the barrier's lock. The abort therefore runs on a daemon thread that
    the caller waits on only briefly; a barrier wedged that way leaves its
    parked workers to :meth:`_SharedCluster.shutdown`'s ``terminate``.
    """

    def abort(wedgeable) -> None:
        wedgeable.abort()

    thread = threading.Thread(target=abort, args=(barrier,), daemon=True,
                              name="barrier-abort")
    thread.start()
    thread.join(_ABORT_WAIT_S)


def _register_skipping_shm(original):
    """Resource-tracker ``register`` shim forwarding all but shm rtypes.

    The previous workaround replaced ``register`` with a bare no-op for the
    attach window, which also swallowed registrations of *other* resource
    types (semaphores, e.g. a ``Barrier`` constructed concurrently on
    another thread) and left them untracked for the process's lifetime.
    This shim drops only the ``"shared_memory"`` rtype — the one the attach
    spuriously registers (bpo-39959) — and forwards everything else.
    """

    def register(name, rtype):
        if rtype != "shared_memory":
            original(name, rtype)

    return register


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without double-registering it.

    Child attaches register with the resource tracker as if they owned the
    segment (bpo-39959), which triggers spurious unlink-at-exit warnings and
    can destroy a segment the parent still owns. Python 3.13 grew
    ``track=False``; older versions need the hook narrowed below.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    # pre-3.13: narrow the tracker's register hook for the duration of the
    # attach (shm registrations dropped, every other rtype still tracked).
    # Unregistering *after* would misfire under fork, where parent and
    # child share one tracker process — the child's unregister would erase
    # the parent's (legitimate, unlink-owning) registration.
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = _register_skipping_shm(original)
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _run_blocks(ws, serial_update, prefetcher, p, q, lr, lam_p, lam_q,
                max_wave, san=None, wid=0, epoch=0):
    """One epoch of one worker's block set — the out-of-core hot loop.

    Blocks arrive through the double-buffered prefetcher (next shard loads
    while this one computes); each block replays through the backend's
    serial-equivalent kernel (numpy: :func:`sgd_serial_update`) with the
    paper's chunk size as the wave cap. With a sanitizer attached each
    block's update coverage lands in the shadow access log (exactly-once
    auditing; the per-sample write order inside a block is serial).
    Registered in lint ``HOT_FUNCTIONS``.
    """
    updates = 0
    seq = 0
    for _, rec in prefetcher:
        rows = rec["u"]
        cols = rec["v"]
        vals = rec["r"]
        serial_update(p, q, rows, cols, vals, lr, lam_p, lam_q,
                      max_wave=max_wave, workspace=ws)
        if san is not None:
            san.block_executed(wid, epoch, seq, rows, cols)
        seq += 1
        updates += len(rec)
    return updates


@dataclass
class _WorkerConfig:
    """Everything a worker needs, picklable for any start method.

    Shared-memory segments travel as names (workers re-attach); barriers
    travel through multiprocessing's own reduction machinery.
    """

    wid: int
    n_procs: int
    start_barrier: object
    done_barrier: object
    # segment names (data segments are None in out-of-core mode)
    p_name: str = ""
    q_name: str = ""
    ctl_name: str = ""
    counts_name: str = ""
    stage_name: str = ""
    phases_name: str = ""
    rows_name: str | None = None
    cols_name: str | None = None
    vals_name: str | None = None
    plan_name: str | None = None
    # geometry
    m: int = 0
    n: int = 0
    k: int = 0
    nnz: int = 0
    n_waves: int = 0
    width: int = 0
    col_lo: int = 0
    col_hi: int = 0
    # out-of-core
    store_root: str | None = None
    blocks: list = field(default_factory=list)
    prefetch_depth: int = 2
    max_wave: int = 256
    #: resolved kernel-backend name (the parent resolves/verifies through
    #: the registry and ships the name; workers re-resolve by exact name)
    backend: str = "numpy"
    shuffle_each_epoch: bool = True
    seed_seq: object = None
    # telemetry relay: when the parent traces, each worker spools spans to
    # its own JSONL file against the parent tracer's clock origin
    spool_path: str | None = None
    trace_origin: float = 0.0
    # sanitizer: mode travels by value (contextvars do not cross the
    # process boundary); workers spool shadow access logs and typed error
    # detail into ``san_spool`` for the parent to merge after join
    sanitize: str = "off"
    san_spool: str | None = None
    #: parent's perf_counter right before Process.start() — the zero point
    #: of this worker's wall/spawn accounting (perf_counter is
    #: CLOCK_MONOTONIC, comparable across processes on one host)
    dispatched_at: float = 0.0


def _worker_main(cfg: _WorkerConfig) -> None:
    """Worker process entry point: attach, then serve epochs until told to exit."""
    t_entry = time.perf_counter()
    born = cfg.dispatched_at or t_entry
    telemetry = None
    if cfg.spool_path is not None:
        telemetry = WorkerTelemetry(
            cfg.wid, origin=cfg.trace_origin, spool_path=cfg.spool_path
        )
    # the sanitizer mode ships by value and each worker builds its own
    # instance: shadow access logs spool to ``cfg.san_spool`` and typed
    # errors travel back as JSON (contextvars never cross the fork/spawn)
    san = sanitizer_from_mode(cfg.sanitize)
    shms = []

    def attach(name):
        shm = _attach(name)
        shms.append(shm)
        return shm

    try:
        model = FactorModel.from_buffers(
            attach(cfg.p_name).buf, attach(cfg.q_name).buf, cfg.m, cfg.n, cfg.k
        )
        ctl = np.ndarray((_CTL_SLOTS,), dtype=np.float64,  # lint: fp64-accumulator -- control scalars, not model math
                         buffer=attach(cfg.ctl_name).buf)
        counts = np.ndarray((cfg.n_procs,), dtype=np.int64,
                            buffer=attach(cfg.counts_name).buf)
        stage = np.ndarray((cfg.n_procs, _STAGE_FIELDS), dtype=np.float64,  # lint: fp64-accumulator -- wall-clock/byte accumulators
                           buffer=attach(cfg.stage_name).buf)
        phases = np.ndarray((cfg.n_procs, _PHASE_FIELDS), dtype=np.float64,  # lint: fp64-accumulator -- wall-clock accumulators
                            buffer=attach(cfg.phases_name).buf)
        from repro.backends import get_backend

        ws = WaveWorkspace()
        backend = get_backend(cfg.backend)
        serial_update = backend.serial_update
        wrng = np.random.default_rng(cfg.seed_seq)
        out_of_core = cfg.store_root is not None
        if out_of_core:
            store = BlockStore.open(cfg.store_root)
            blocks = [tuple(b) for b in cfg.blocks]
        else:
            rows = np.ndarray((cfg.nnz,), dtype=np.int32,
                              buffer=attach(cfg.rows_name).buf)
            cols = np.ndarray((cfg.nnz,), dtype=np.int32,
                              buffer=attach(cfg.cols_name).buf)
            vals = np.ndarray((cfg.nnz,), dtype=np.float32,
                              buffer=attach(cfg.vals_name).buf)
            plan_buf = attach(cfg.plan_name).buf
            matrix = np.ndarray((cfg.n_waves, cfg.width), dtype=np.int64,
                                buffer=plan_buf)
            lengths = np.ndarray((cfg.n_waves,), dtype=np.int64,
                                 buffer=plan_buf,
                                 offset=cfg.n_waves * cfg.width * 8)
            lanes = PlanShard(cfg.wid, cfg.col_lo, cfg.col_hi)
        setup_done = time.perf_counter()
        phases[cfg.wid, _PH_SPAWN] = setup_done - born
        if telemetry is not None:
            telemetry.add_span(
                "spawn/attach", born - cfg.trace_origin, setup_done - born,
                cat="spawn",
            )
        with activate_sanitizer(san):
            while True:
                t_b0 = time.perf_counter()
                cfg.start_barrier.wait()
                t_b1 = time.perf_counter()
                if ctl[_CMD] == _CMD_EXIT:
                    return
                epoch = int(ctl[_EPOCH])
                phases[cfg.wid, _PH_EPOCH_BARRIER] = t_b1 - t_b0
                phases[cfg.wid, _PH_BARRIER] += t_b1 - t_b0
                if telemetry is not None:
                    telemetry.add_span(
                        "barrier.dispatch", t_b0 - cfg.trace_origin,
                        t_b1 - t_b0, cat="barrier", args={"epoch": epoch},
                    )
                lr = np.float32(ctl[_LR])
                lam_p = np.float32(ctl[_LAM_P])
                lam_q = np.float32(ctl[_LAM_Q])
                try:
                    t_c0 = time.perf_counter()
                    if out_of_core:
                        order = blocks
                        if cfg.shuffle_each_epoch and len(blocks) > 1:
                            perm = wrng.permutation(len(blocks))
                            order = [blocks[i] for i in perm]
                        prefetcher = BlockPrefetcher(
                            store, order, depth=cfg.prefetch_depth,
                            telemetry=telemetry,
                        )
                        n = _run_blocks(ws, serial_update, prefetcher,
                                        model.p, model.q,
                                        lr, lam_p, lam_q, cfg.max_wave,
                                        san=san, wid=cfg.wid, epoch=epoch)
                        compute_s = time.perf_counter() - t_c0
                        s = prefetcher.stats
                        stage[cfg.wid, 0] += s.blocks_loaded
                        stage[cfg.wid, 1] += s.bytes_loaded
                        stage[cfg.wid, 2] += s.load_seconds
                        stage[cfg.wid, 3] += s.wait_seconds
                        # the block loop's wall time splits into prefetch
                        # stall (consumer blocked on the loader) and compute
                        phases[cfg.wid, _PH_PREFETCH] += s.wait_seconds
                        phases[cfg.wid, _PH_COMPUTE] += max(
                            0.0, compute_s - s.wait_seconds
                        )
                    else:
                        observer = None
                        if san is not None:
                            # fresh wrapper per epoch: the shadow log keys
                            # every wave to (worker, epoch, wave)
                            observer = san.wave_kernel(
                                backend.bind(ws), wid=cfg.wid, epoch=epoch
                            )
                        # cut afresh: the parent refilled the shared matrix,
                        # so the workspace must gather the lanes again
                        n = _replay_shard(ws, backend,
                                          lanes.cut(matrix, lengths, epoch),
                                          model.p, model.q, rows, cols, vals,
                                          lr, lam_p, lam_q, observer=observer)
                        compute_s = time.perf_counter() - t_c0
                        phases[cfg.wid, _PH_COMPUTE] += compute_s
                    counts[cfg.wid] = n
                    if telemetry is not None:
                        telemetry.add_span(
                            f"epoch {epoch} compute",
                            t_c0 - cfg.trace_origin,
                            compute_s, cat="compute",
                            args={"epoch": epoch, "updates": int(n)},
                        )
                except BaseException as exc:
                    ctl[_ERR] = float(cfg.wid + 1)
                    if (
                        cfg.san_spool is not None
                        and isinstance(exc, SanitizerError)
                    ):
                        # ship the typed detail; the parent re-raises a
                        # SanitizerError with these coordinates instead of
                        # a generic "worker failed"
                        try:
                            (
                                Path(cfg.san_spool)
                                / f"error_w{cfg.wid:04d}.json"
                            ).write_text(json.dumps(exc.as_dict()))
                        except OSError:  # pragma: no cover - disk gone
                            pass
                    import traceback

                    traceback.print_exc()
                t_d0 = time.perf_counter()
                cfg.done_barrier.wait()
                t_d1 = time.perf_counter()
                # written after the parent is released — the parent must
                # join (``_SharedCluster.shutdown``) before reading phase
                # totals, or it races these writes and sees compute > wall
                # (completion-barrier wait: idle until the slowest sibling)
                phases[cfg.wid, _PH_BARRIER] += t_d1 - t_d0
                phases[cfg.wid, _PH_WALL] = t_d1 - born
                if telemetry is not None:
                    telemetry.add_span(
                        "barrier.complete", t_d0 - cfg.trace_origin,
                        t_d1 - t_d0, cat="barrier", args={"epoch": epoch},
                    )
                    telemetry.flush()
    finally:
        if (
            san is not None
            and san.check_races
            and cfg.san_spool is not None
        ):
            # torn writes tolerated: the parent's load_spools skips any
            # file a dying worker left incomplete
            dump_log(
                Path(cfg.san_spool) / f"san_{cfg.wid:04d}.npz", san.race_log
            )
        if telemetry is not None:
            telemetry.flush()
        for shm in shms:
            shm.close()


class _SharedCluster:
    """Owns the shared segments and the persistent worker pool."""

    def __init__(self, n_procs: int, start_method: str | None) -> None:
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else None
            )
        self.ctx = mp.get_context(start_method)
        self.n_procs = n_procs
        self._segments: list[shared_memory.SharedMemory] = []
        self._procs: list = []
        self.shm_bytes = 0
        self.barrier_wait_seconds = 0.0
        self.model: FactorModel | None = None
        self.plan_matrix = None
        self.ctl = self.counts = self.stage = None
        self.phases = None
        #: sanitizer spool directory (race logs + typed worker errors)
        self.san_spool: str | None = None

    # ------------------------------------------------------------------
    def _alloc(self, nbytes: int) -> shared_memory.SharedMemory:
        # track_shm is a no-op without an ambient sanitizer; with one, the
        # lifecycle ledger audits this create against close()+unlink()
        shm = track_shm(
            shared_memory.SharedMemory(create=True, size=max(int(nbytes), 1))
        )
        self._segments.append(shm)
        self.shm_bytes += shm.size
        return shm

    def _shared_array(self, shape, dtype) -> tuple[np.ndarray, str]:
        shm = self._alloc(int(np.prod(shape)) * np.dtype(dtype).itemsize)
        return np.ndarray(shape, dtype=dtype, buffer=shm.buf), shm.name

    # ------------------------------------------------------------------
    def start(
        self,
        model: FactorModel,
        plan: EpochPlan | None,
        ratings: RatingMatrix | None,
        store: BlockStore | None,
        prefetch_depth: int,
        max_wave: int,
        shuffle_each_epoch: bool,
        seed: int,
        backend: str = "numpy",
        relay: TraceRelay | None = None,
        trace_origin: float = 0.0,
        sanitize: str = "off",
        san_spool: str | None = None,
    ) -> FactorModel:
        """Copy the model (and data, in-memory mode) into shared segments
        and launch the worker pool. Returns the shared-memory-backed model
        the parent should use from now on.

        ``relay`` (plus the parent tracer's ``trace_origin``) switches on
        per-worker span spooling; phase accounting in the shared ``phases``
        array is always on (a handful of ``perf_counter`` calls per epoch).
        ``sanitize``/``san_spool`` arm the in-worker sanitizer the same way
        the relay arms span spooling.
        """
        self.san_spool = san_spool
        m, n, k = model.m, model.n, model.k
        p_sh, p_name = self._shared_array((m, k), np.float32)
        q_sh, q_name = self._shared_array((n, k), np.float32)
        np.copyto(p_sh, model.p)
        np.copyto(q_sh, model.q)
        self.model = FactorModel(p=p_sh, q=q_sh)
        self.ctl, ctl_name = self._shared_array((_CTL_SLOTS,), np.float64)
        self.ctl[:] = 0.0
        self.counts, counts_name = self._shared_array((self.n_procs,), np.int64)
        self.counts[:] = 0
        self.stage, stage_name = self._shared_array(
            (self.n_procs, _STAGE_FIELDS), np.float64
        )
        self.stage[:] = 0.0
        self.phases, phases_name = self._shared_array(
            (self.n_procs, _PHASE_FIELDS), np.float64
        )
        self.phases[:] = 0.0
        self.start_barrier = self.ctx.Barrier(self.n_procs + 1)
        self.done_barrier = self.ctx.Barrier(self.n_procs + 1)

        base = dict(
            n_procs=self.n_procs,
            start_barrier=self.start_barrier,
            done_barrier=self.done_barrier,
            p_name=p_name,
            q_name=q_name,
            ctl_name=ctl_name,
            counts_name=counts_name,
            stage_name=stage_name,
            phases_name=phases_name,
            trace_origin=trace_origin,
            m=m,
            n=n,
            k=k,
            prefetch_depth=prefetch_depth,
            max_wave=max_wave,
            backend=backend,
            shuffle_each_epoch=shuffle_each_epoch,
            sanitize=sanitize,
            san_spool=san_spool,
        )
        if store is not None:
            assignment = store.assign(self.n_procs)
            base.update(store_root=str(store.root))
        else:
            rows_sh, rows_name = self._shared_array((ratings.nnz,), np.int32)
            cols_sh, cols_name = self._shared_array((ratings.nnz,), np.int32)
            vals_sh, vals_name = self._shared_array((ratings.nnz,), np.float32)
            np.copyto(rows_sh, ratings.rows)
            np.copyto(cols_sh, ratings.cols)
            np.copyto(vals_sh, ratings.vals)
            # plan segment: the (n_waves, width) matrix followed by lengths
            plan_shm = self._alloc((plan.n_waves * plan.width + plan.n_waves) * 8)
            self.plan_matrix = np.ndarray(
                (plan.n_waves, plan.width), dtype=np.int64, buffer=plan_shm.buf
            )
            lengths_sh = np.ndarray(
                (plan.n_waves,), dtype=np.int64, buffer=plan_shm.buf,
                offset=plan.n_waves * plan.width * 8,
            )
            np.copyto(lengths_sh, plan.lengths)
            shards = plan.shard(self.n_procs)
            base.update(
                rows_name=rows_name,
                cols_name=cols_name,
                vals_name=vals_name,
                plan_name=plan_shm.name,
                nnz=ratings.nnz,
                n_waves=plan.n_waves,
                width=plan.width,
            )
        worker_seeds = np.random.SeedSequence(seed).spawn(self.n_procs)
        for wid in range(self.n_procs):
            cfg = _WorkerConfig(wid=wid, seed_seq=worker_seeds[wid], **base)
            if store is not None:
                cfg.blocks = assignment[wid]
            else:
                shard = shards[wid]
                cfg.col_lo, cfg.col_hi = shard.col_lo, shard.col_hi
            if relay is not None:
                cfg.spool_path = str(relay.spool_path(wid))
            proc = self.ctx.Process(
                target=_worker_main, args=(cfg,), name=f"hogwild-proc-{wid}",
                daemon=True,
            )
            cfg.dispatched_at = time.perf_counter()
            proc.start()
            self._procs.append(proc)
        return self.model

    # ------------------------------------------------------------------
    def run_epoch(self, plan: EpochPlan | None, lr: float,
                  lam_p: float, lam_q: float, epoch: int = 0) -> int:
        """Dispatch one epoch to the pool and wait for completion."""
        if plan is not None:
            np.copyto(self.plan_matrix, plan.matrix)
        self.ctl[_CMD] = _CMD_RUN
        self.ctl[_LR] = float(lr)
        self.ctl[_LAM_P] = float(lam_p)
        self.ctl[_LAM_Q] = float(lam_q)
        self.ctl[_ERR] = 0.0
        self.ctl[_EPOCH] = float(epoch)
        t0 = time.perf_counter()
        self._wait_barrier(self.start_barrier, "dispatch")
        self.barrier_wait_seconds += time.perf_counter() - t0
        self._wait_barrier(self.done_barrier, "completion")
        if self.ctl[_ERR]:
            wid = int(self.ctl[_ERR]) - 1
            typed = self._worker_error(wid)
            if typed is not None:
                raise typed
            raise RuntimeError(
                f"worker {wid} failed during the epoch "
                "(traceback on its stderr)"
            )
        return int(self.counts.sum())

    def _wait_barrier(self, barrier, stage: str) -> None:
        """Wait on ``barrier`` while watching the pool for dead workers.

        ``mp.Barrier.wait(timeout)`` *breaks* the barrier on timeout, so
        the parent cannot poll-wait on the barrier itself. Instead a
        daemon thread performs the real wait while this thread polls
        ``Process.is_alive``: a worker killed mid-epoch (segfault, OOM
        reaper) surfaces within ~50 ms as a diagnostic naming the worker,
        pid, exit code, and barrier stage — not as a ten-minute hang
        ending in an opaque ``BrokenBarrierError``.
        """
        done = threading.Event()
        failures: list[BaseException] = []

        def waiter() -> None:
            try:
                barrier.wait(timeout=_EPOCH_TIMEOUT_S)
            except BaseException as exc:
                failures.append(exc)
            finally:
                done.set()

        thread = threading.Thread(
            target=waiter, daemon=True, name=f"barrier-wait-{stage}"
        )
        thread.start()
        while not done.wait(0.05):
            dead = [
                (wid, proc)
                for wid, proc in enumerate(self._procs)
                if not proc.is_alive()
            ]
            if dead:
                # release everyone still parked (the waiter thread and any
                # surviving workers see BrokenBarrierError and unwind)
                _abort_barrier(barrier)
                wid, proc = dead[0]
                raise RuntimeError(
                    f"worker {wid} (pid {proc.pid}, exit code "
                    f"{proc.exitcode}) died during the '{stage}' barrier; "
                    "aborted the barrier to release the remaining workers"
                )
        if failures:
            raise RuntimeError(
                f"'{stage}' barrier broke without completing "
                f"(timeout {_EPOCH_TIMEOUT_S:.0f}s): {failures[0]!r}"
            ) from failures[0]

    def _worker_error(self, wid: int) -> SanitizerError | None:
        """Reconstruct a worker's typed sanitizer failure, if it left one."""
        if self.san_spool is None:
            return None
        path = Path(self.san_spool) / f"error_w{wid:04d}.json"
        try:
            state = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return SanitizerError(
            str(state.get("kind", "unknown")),
            str(state.get("message", "")),
            worker=state.get("worker"),
            epoch=state.get("epoch"),
            wave=state.get("wave"),
        )

    def worker_updates(self) -> list[int]:
        return [int(c) for c in self.counts]

    def epoch_barrier_waits(self) -> list[float]:
        """Per-worker dispatch-barrier wait of the epoch that just ran.

        Safe between barriers: workers write the slot before computing and
        the parent reads after the completion barrier released."""
        return [float(w) for w in self.phases[:, _PH_EPOCH_BARRIER]]

    def phase_totals(self) -> np.ndarray:
        """Copy of the per-worker phase accumulators (rows: worker id,
        columns: the ``_PH_*`` fields)."""
        if self.phases is None:
            return np.zeros((self.n_procs, _PHASE_FIELDS))
        return np.array(self.phases)

    def stage_stats(self) -> PrefetchStats:
        totals = self.stage.sum(axis=0)
        return PrefetchStats(
            blocks_loaded=int(totals[0]),
            bytes_loaded=int(totals[1]),
            load_seconds=float(totals[2]),
            wait_seconds=float(totals[3]),
        )

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Release and join the worker pool (idempotent), leaving every
        shared segment alive.

        Splitting this out of :meth:`close` lets the parent join the
        workers *before* reading the ``phases`` array: each worker writes
        its final wall/barrier slots after the done barrier releases the
        parent, so reading phase totals pre-join races those writes and
        produces reports where per-worker compute exceeds wall (the bug in
        the shipped BENCH_parallel.json).
        """
        if not self._procs:
            return
        grace = 30.0
        try:
            if self.ctl is not None:
                self.ctl[_CMD] = _CMD_EXIT
            if any(not proc.is_alive() for proc in self._procs):
                # a dead worker can never reach the barrier — abort it so
                # any survivors unwind instead of stalling the full timeout
                _abort_barrier(self.start_barrier)
                grace = _ABORT_WAIT_S
            else:
                self.start_barrier.wait(timeout=30.0)
        except Exception:  # pragma: no cover - pool already dead
            pass
        for proc in self._procs:
            proc.join(timeout=grace)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs = []

    def close(self) -> FactorModel | None:
        """Shut the pool down (if still up) and free every segment.

        Returns a private (heap-backed) copy of the model, made before the
        shared segments are unlinked — the shared views die with them.
        """
        model = None
        self.shutdown()
        if getattr(self, "model", None) is not None:
            model = self.model.copy()
            self.model = None
        self.plan_matrix = None
        self.ctl = self.counts = self.stage = None
        self.phases = None
        for shm in self._segments:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []
        return model


class ProcessHogwild:
    """Hogwild! SGD executor over ``n_procs`` OS processes.

    Parameters
    ----------
    k, lam, schedule, seed, scale_factor:
        As :class:`repro.core.cumf.CuMFSGD` / :class:`ThreadedHogwild`.
    n_procs:
        Worker processes. Each owns an equal contiguous run of the compiled
        plan's live lanes (in-memory mode) or an nnz-balanced set of grid
        blocks (out-of-core mode).
    workers, f:
        The batch-Hogwild! geometry of the *shared* epoch plan (``s`` total
        concurrent lanes, ``f`` consecutive samples per chunk — paper
        default 256). The plan and its per-epoch re-permutation come from
        :meth:`~repro.core.hogwild.BatchHogwild.compiled_plan`, so
        ``n_procs=1`` reproduces the serial compiled-plan path bit for bit.
    store:
        A :class:`~repro.data.blockstore.BlockStore` switches the executor
        to out-of-core mode: ratings stream from disk through per-worker
        double-buffered prefetchers instead of living in shared memory.
    prefetch_depth:
        Staging buffers per worker in out-of-core mode (2 = double
        buffering, the paper's two-resident-blocks pipeline).
    start_method:
        ``multiprocessing`` start method; default prefers ``fork`` (cheap
        worker launch) and falls back to the platform default.
    profile:
        Controls per-worker span spooling (the trace relay). ``None``
        (default) spools whenever an ambient tracer is active
        (:func:`repro.obs.context.activate`); ``False`` never spools.
        Phase accounting — the :class:`~repro.obs.profiler.StallReport` on
        :attr:`stall_report` after :meth:`fit` — is always on; it costs a
        handful of clock reads per worker per epoch.
    backend:
        Kernel backend for the per-worker hot loops — a name, a
        :class:`~repro.backends.base.BackendType`, or an instance. ``None``
        (default) resolves to the NumPy reference (the historical path, bit
        for bit at ``n_procs=1``).

    Non-deterministic for ``n_procs > 1`` (real cross-process races); use
    the deterministic simulators for reproducibility-sensitive experiments.
    """

    def __init__(
        self,
        k: int = 32,
        n_procs: int = 4,
        lam: float = 0.05,
        schedule: LearningRateSchedule | None = None,
        seed: int = 0,
        workers: int = 128,
        f: int = 256,
        scale_factor: float = 1.0,
        shuffle_each_epoch: bool = True,
        store: BlockStore | None = None,
        prefetch_depth: int = 2,
        start_method: str | None = None,
        profile: bool | None = None,
        backend: object | None = None,
    ) -> None:
        if min(k, n_procs, workers, f) <= 0:
            raise ValueError("k, n_procs, workers, f must be positive")
        if n_procs > workers and store is None:
            raise ValueError(
                f"n_procs={n_procs} exceeds the plan's {workers} worker lanes"
            )
        self.k = k
        self.n_procs = n_procs
        self.lam = lam
        self.schedule = schedule or NomadSchedule()
        self.seed = seed
        self.workers = workers
        self.f = f
        self.scale_factor = scale_factor
        self.shuffle_each_epoch = shuffle_each_epoch
        self.store = store
        self.prefetch_depth = prefetch_depth
        self.start_method = start_method
        self.profile = profile
        #: kernel backend (name / BackendType / instance; None = numpy
        #: reference). The parent resolves and verifies it once through the
        #: registry and ships only the resolved *name* to workers, which
        #: re-resolve by exact name — so a missing accelerator warns once
        #: in the parent instead of once per worker.
        self.backend = backend
        self.model: FactorModel | None = None
        self.history: TrainHistory | None = None
        #: updates each worker performed in the last epoch
        self.worker_updates: list[int] = []
        self.stage_stats: PrefetchStats | None = None
        self.barrier_wait_seconds = 0.0
        #: phase attribution of the last :meth:`fit` (set even on error
        #: paths once workers have run)
        self.stall_report: StallReport | None = None
        #: per-epoch, per-worker dispatch-barrier waits of the last fit
        self._barrier_waits: list[list[float]] = []

    # ------------------------------------------------------------------
    @contextmanager
    def _pool(self, init: FactorModel, train: RatingMatrix | None):
        """Start the worker pool around a fit's epochs; yields the
        shared-memory model the epochs update.

        On exit — error paths included — the pool is joined, worker spools
        (trace spans, sanitizer logs) are merged, and :attr:`model` becomes
        a private copy of the shared factors before the segments are freed.
        """
        self._plans = BatchHogwild(
            workers=self.workers, f=self.f, seed=self.seed,
            shuffle_each_epoch=self.shuffle_each_epoch,
        )
        #: the pool starts on epoch 1's plan; run_epoch advances it
        self._plan = (
            self._plans.compiled_plan(train.nnz) if self.store is None else None
        )
        cluster = self._cluster = _SharedCluster(self.n_procs, self.start_method)
        self._totals = [0] * self.n_procs
        self._epochs_run = 0
        self._barrier_waits = []
        self.stall_report = None
        tracer = active_tracer()
        relay = None
        if tracer is not None and self.profile is not False:
            relay = TraceRelay(tempfile.mkdtemp(prefix="cumf-relay-"))
        san = active_sanitizer()
        # workers spool shadow access logs + typed errors here; merged
        # after the pool joins, removed before the session ends
        san_dir = tempfile.mkdtemp(prefix="cumf-san-") if san is not None else None
        from repro.backends import get_backend

        # resolve (and verify) in the parent; ship only the name so workers
        # re-resolve by exact name without re-triggering fallback warnings
        backend_name = get_backend(self.backend).name.value
        try:
            yield cluster.start(
                init, self._plan, train, self.store, self.prefetch_depth,
                self.f, self.shuffle_each_epoch, self.seed,
                backend=backend_name,
                relay=relay,
                trace_origin=tracer.origin if tracer is not None else 0.0,
                sanitize=san.mode if san is not None else "off",
                san_spool=san_dir,
            )
        finally:
            # join the workers FIRST: their final wall/barrier phase slots
            # are written after the done barrier releases the parent, so
            # reading phase totals before the join races those writes and
            # yields per-worker compute > wall (the invariant is enforced
            # by StallReport.validate_dict)
            cluster.shutdown()
            if san_dir is not None:
                # workers are joined — their spools are complete (or torn,
                # which load_spools tolerates). Merge, then drop the dir.
                if san.check_races:
                    load_spools(san_dir, san.race_log)
                shutil.rmtree(san_dir, ignore_errors=True)
            self.barrier_wait_seconds = cluster.barrier_wait_seconds
            if self.store is not None:
                self.stage_stats = cluster.stage_stats()
            phase_totals = cluster.phase_totals()
            shm_bytes = cluster.shm_bytes
            self.model = cluster.close()
            if self._epochs_run:
                self.stall_report = self._build_stall_report(phase_totals)
            if relay is not None:
                # workers have flushed and exited (close() joins them);
                # replay their spools onto the parent's timeline
                relay.merge_into(tracer, label="proc")
                relay.cleanup()
        self._publish(shm_bytes)

    def run_epoch(
        self,
        model: FactorModel,
        ratings: RatingMatrix | None,
        lr: float,
        lam_p: float,
        lam_q: float | None = None,
        hooks: TrainerHooks | None = None,
    ) -> int:
        """One epoch on the pool: dispatch, wait for every worker's shard."""
        lam_q = lam_p if lam_q is None else lam_q
        if self._plan is not None and self._epochs_run:
            self._plan = self._plans.compiled_plan(self._plan.nnz)
        self._epochs_run += 1
        cluster = self._cluster
        n = cluster.run_epoch(
            self._plan, lr, lam_p, lam_q, epoch=self._epochs_run
        )
        san = active_sanitizer()
        if san is not None:
            # deterministic sweep over the *shared* factor views — an
            # injected NaN is caught the epoch it lands, regardless of
            # worker-side sampling
            san.epoch_end(model.p, model.q, epoch=self._epochs_run)
        self.worker_updates = cluster.worker_updates()
        self._barrier_waits.append(cluster.epoch_barrier_waits())
        for wid, count in enumerate(self.worker_updates):
            self._totals[wid] += count
        return n

    def fit(
        self,
        train: RatingMatrix | None,
        epochs: int = 10,
        test: RatingMatrix | None = None,
        target_rmse: float | None = None,
        hooks: TrainerHooks | None = None,
    ) -> TrainHistory:
        """Train for ``epochs`` passes. ``train`` may be ``None`` in
        out-of-core mode (shape and samples come from the store)."""
        if self.store is None:
            if train is None:
                raise ValueError("train is required without a BlockStore")
            m, n, nnz = train.n_rows, train.n_cols, train.nnz
        else:
            m, n, nnz = self.store.n_rows, self.store.n_cols, self.store.nnz
            if train is not None and train.shape != self.store.shape:
                raise ValueError(
                    f"train shape {train.shape} disagrees with store "
                    f"shape {self.store.shape}"
                )
        if nnz == 0:
            raise ValueError("cannot train on an empty rating matrix")
        init = FactorModel.initialize(
            m, n, self.k, seed=self.seed, scale_factor=self.scale_factor
        )
        self.history = run_epochs(
            self, init, train, epochs,
            schedule=self.schedule, lam=self.lam, scheme="process-hogwild",
            k=self.k, nnz=nnz, test=test, target_rmse=target_rmse,
            hooks=hooks,
            extras=lambda: {
                "n_procs": self.n_procs,
                "worker_updates": list(self.worker_updates),
                "out_of_core": self.store is not None,
                "barrier_wait_seconds": float(sum(self._barrier_waits[-1])),
            },
            session=self._pool,
        )
        return self.history

    # ------------------------------------------------------------------
    def _build_stall_report(self, totals: np.ndarray) -> StallReport:
        """Fold the shared phase accumulators into a :class:`StallReport`."""
        workers = [
            WorkerPhases(
                wid=wid,
                wall_seconds=float(totals[wid, _PH_WALL]),
                seconds={
                    "spawn": float(totals[wid, _PH_SPAWN]),
                    "barrier": float(totals[wid, _PH_BARRIER]),
                    "compute": float(totals[wid, _PH_COMPUTE]),
                    "prefetch": float(totals[wid, _PH_PREFETCH]),
                },
            )
            for wid in range(self.n_procs)
        ]
        executor = "procs_ooc" if self.store is not None else "procs"
        return StallReport(executor, workers)

    def _publish(self, shm_bytes: int) -> None:
        """Accumulate ``repro.proc.*`` (and staging) metrics into the
        ambient registry; no-op when none is active."""
        from repro.obs.context import active_registry
        from repro.obs.registry import M

        registry = active_registry()
        if registry is None:
            return
        registry.gauge(M.PROC_WORKERS).set(self.n_procs)
        registry.gauge(M.PROC_SHM_BYTES).set(shm_bytes)
        registry.counter(M.PROC_EPOCHS).inc(self._epochs_run)
        # one histogram per worker id: stragglers hide in an aggregate, so
        # each worker's per-epoch dispatch-barrier wait lands in its own
        # labeled family member
        for waits in self._barrier_waits:
            for wid, wait in enumerate(waits):
                registry.histogram(
                    M.PROC_BARRIER_WAIT_SECONDS, BARRIER_WAIT_BUCKETS,
                    {"worker": wid},
                ).observe(wait)
        for wid, count in enumerate(self._totals):
            registry.counter(
                M.PROC_WORKER_UPDATES, {"worker": wid}
            ).inc(count)
        if self.stall_report is not None:
            self.stall_report.publish(registry)
        if self.stage_stats is not None:
            self.stage_stats.publish()

    def score(self, ratings: RatingMatrix) -> float:
        if self.model is None:
            raise RuntimeError("fit() first")
        p, q = self.model.as_float32()
        return rmse(p, q, ratings)
