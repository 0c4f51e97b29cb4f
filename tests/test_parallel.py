"""Tier-1 tests for the thread executor and the out-of-core block store.

Covers the contracts the parallel layer is built on:

* ``EpochPlan.shard`` — static column shards that tile every live worker
  lane exactly once, their ``lengths`` clipping padded tails;
* ``BlockStore`` — the i x j mmap grid round-trips the COO multiset, and
  the double-buffered prefetcher stages every block with honest stats;
* ``ThreadedHogwild`` under :func:`run_epochs` — one thread is
  bit-identical to the serial compiled-plan executor on the same kernel
  backend (same RNG stream, same kernels, one shard);
* ``CuMFSGD(n_threads=..., store=...)`` — four threads still converge
  despite real races, and out of core one NumPy thread is bit-identical to
  a plain loop of ``sgd_serial_update`` over its blocks;
* the thread dispatch — a thread's failure reaches the caller once every
  thread has joined, and each thread runs in the caller's context;
* the epoch loop — every executor's history times its epochs;
* telemetry — the executor emits epoch and kernel events (in core the
  plan's waves, as one thread emits them) and publishes its
  ``repro.thread.*`` metrics into the ambient registry.
"""

from __future__ import annotations

import contextvars
import sys
import threading

import numpy as np
import pytest

from repro.backends.c_backend import find_compiler
from repro.backends.numpy_backend import NumpyBackend
from repro.core.hogwild import BatchHogwild
from repro.core.kernels import sgd_serial_update
from repro.core.lr_schedule import NomadSchedule
from repro.core.model import FactorModel
from repro.core.trainer import CuMFSGD, run_epochs
from repro.data.blockstore import BlockPrefetcher, BlockStore
from repro.data.container import RatingMatrix
from repro.metrics.throughput import ThroughputRecord
from repro.obs import RecordingHooks, TelemetryCollector, activate
from repro.obs.registry import M
from repro.parallel import ThreadedHogwild
from repro.parallel.dispatch import run_threads
from repro.san import Sanitizer, activate_sanitizer
from repro.sched.plan import EpochPlan


def _run_executor(executor, train, epochs, seed, k=8, lam=0.05):
    """``epochs`` of ``executor`` through the one epoch loop, from
    CuMFSGD's initial model and schedule; returns the model."""
    model = FactorModel.initialize(train.n_rows, train.n_cols, k, seed=seed)
    run_epochs(executor, model, train, epochs, schedule=NomadSchedule(),
               lam=lam, scheme="batch_hogwild")
    return model


def _event_key(event) -> tuple:
    """Everything a kernel event carries, coordinates' dtype included."""
    coords = tuple(None if ids is None else (ids.dtype.str, ids.tobytes())
                   for ids in (event.rows, event.cols))
    return (event.name, event.n_updates, event.n_waves, coords)


def _coo_multiset(rows, cols, vals):
    """Order-independent canonical form of a COO triple."""
    order = np.lexsort((vals, cols, rows))
    return (
        np.asarray(rows)[order],
        np.asarray(cols)[order],
        np.asarray(vals)[order],
    )


class TestPlanShard:
    def test_shards_tile_every_lane_once(self, rng):
        # the second plan's one-sample tail waves leave two shards empty
        for nnz, workers, f, n_shards in ((1_000, 16, 8, 5), (100, 8, 4, 3)):
            plan = EpochPlan(rng.permutation(nnz).astype(np.int64),
                             workers=workers, f=f)
            shards = plan.shard(n_shards)
            assert [s.index for s in shards] == list(range(n_shards))
            assert shards[0].col_lo == 0 and shards[-1].col_hi == plan.width
            for prev, cur in zip(shards, shards[1:]):
                assert prev.col_hi == cur.col_lo  # contiguous, disjoint
            assert sum(s.width for s in shards) == plan.width
            # per wave: the live slices re-cover exactly the wave's samples
            matrix = plan.positions(
                0, plan.width, np.empty((plan.n_waves, plan.width), np.int64))
            for i, length in enumerate(plan.lengths.tolist()):
                seen = []
                for s in shards:
                    live = int(s.lengths[i])
                    # padding trims from the right: clip to the shard's lanes
                    assert live == min(max(length - s.col_lo, 0), s.width)
                    seen.append(matrix[i, s.col_lo : s.col_lo + live])
                wave = np.concatenate(seen)
                assert np.array_equal(wave, matrix[i, :length])

    def test_single_shard_spans_full_width(self, rng):
        plan = EpochPlan(rng.permutation(64).astype(np.int64), workers=4, f=4)
        (only,) = plan.shard(1)
        assert (only.col_lo, only.col_hi) == (0, plan.width)

    def test_shard_count_validation(self, rng):
        plan = EpochPlan(rng.permutation(64).astype(np.int64), workers=4, f=4)
        with pytest.raises(ValueError, match="n_shards"):
            plan.shard(0)

    def test_small_plan_splits_only_live_lanes(self, rng):
        """nnz < workers*f fills only the first ceil(nnz/f) lanes; cutting
        every lane would leave the last shards idle all epoch."""
        plan = EpochPlan(rng.permutation(100).astype(np.int64), workers=16, f=16)
        shards = plan.shard(4)
        assert shards[-1].col_hi == 7  # ceil(100 / 16) live lanes
        per_shard = [int(s.lengths.sum()) for s in shards]
        assert all(n > 0 for n in per_shard), per_shard
        assert sum(per_shard) == 100


class TestBlockStore:
    def test_round_trip_is_multiset_identity(self, tiny_problem, tmp_path):
        train = tiny_problem.train
        store = BlockStore.create(train, 3, 3, tmp_path / "store", seed=0)
        back = store.reassemble()
        assert (back.n_rows, back.n_cols, back.nnz) == (
            train.n_rows, train.n_cols, train.nnz,
        )
        got = _coo_multiset(back.rows, back.cols, back.vals)
        want = _coo_multiset(train.rows, train.cols, train.vals)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_open_rereads_manifest(self, tiny_problem, tmp_path):
        root = tmp_path / "store"
        created = BlockStore.create(tiny_problem.train, 2, 3, root, seed=1)
        opened = BlockStore.open(root)
        assert opened.shape == created.shape
        assert opened.n_blocks == created.n_blocks
        assert np.array_equal(opened.block_nnz, created.block_nnz)
        for bi, bj in created.blocks():
            assert np.array_equal(opened.load(bi, bj), created.load(bi, bj))

    def test_shuffle_within_block_permutes_only_within(self, tiny_problem, tmp_path):
        train = tiny_problem.train
        plain = BlockStore.create(
            train, 2, 2, tmp_path / "plain", shuffle_within=False, seed=0
        )
        mixed = BlockStore.create(
            train, 2, 2, tmp_path / "mixed", shuffle_within=True, seed=0
        )
        for bi, bj in plain.blocks():
            a, b = plain.load(bi, bj), mixed.load(bi, bj)
            assert len(a) == len(b)
            got = _coo_multiset(b["u"], b["v"], b["r"])
            want = _coo_multiset(a["u"], a["v"], a["r"])
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_assign_partitions_all_blocks(self, tiny_problem, tmp_path):
        store = BlockStore.create(tiny_problem.train, 4, 4, tmp_path / "s", seed=0)
        lanes = store.assign(3)
        assert len(lanes) == 3
        flat = [b for lane in lanes for b in lane]
        assert sorted(flat) == sorted(store.blocks())

    def test_prefetcher_stages_every_block(self, tiny_problem, tmp_path):
        store = BlockStore.create(tiny_problem.train, 3, 2, tmp_path / "s", seed=0)
        sequence = list(store.blocks())
        fetched = {}
        pf = BlockPrefetcher(store, sequence, depth=2)
        for key, rec in pf:
            fetched[key] = int(len(rec))
        assert sorted(fetched) == sorted(sequence)
        assert sum(fetched.values()) == tiny_problem.train.nnz
        assert pf.stats.blocks_loaded == len(sequence)
        assert pf.stats.bytes_loaded > 0
        assert pf.stats.load_seconds >= 0.0


class TestThreadedHogwild:
    @pytest.mark.parametrize("backend", [
        "numpy",
        pytest.param("c", marks=pytest.mark.skipif(
            find_compiler() is None, reason="no C compiler found")),
    ])
    def test_one_worker_bit_identical_to_cumfsgd(self, tiny_problem, backend):
        """Threads replay the serial executor's EpochPlan: with one thread
        they reproduce CuMFSGD's factors bit for bit on the same backend."""
        train = tiny_problem.train
        workers, f, seed = 32, 16, 3
        ref = CuMFSGD(k=8, scheme="batch_hogwild", workers=workers, f=f,
                      lam=0.05, seed=seed, backend=backend)
        ref.fit(train, epochs=3)
        model = _run_executor(
            ThreadedHogwild(n_threads=1, seed=seed, workers=workers, f=f,
                            backend=backend), train, 3, seed)
        assert model.p.tobytes() == ref.model.p.tobytes()
        assert model.q.tobytes() == ref.model.q.tobytes()

    def test_single_thread_bit_identical_to_serial(self, tiny_problem):
        """One shard replays the serial compiled-plan schedule exactly: same
        init, same permutation stream, same kernels."""
        train = tiny_problem.train
        spec = tiny_problem.spec
        workers, f, seed, epochs = 32, 16, 7, 3

        ref = FactorModel.initialize(spec.m, spec.n, 8, seed=seed)
        sched = BatchHogwild(workers=workers, f=f, seed=seed)
        schedule = NomadSchedule()
        for epoch in range(epochs):
            sched.run_epoch(ref, train, schedule(epoch), 0.05)

        model = _run_executor(
            ThreadedHogwild(n_threads=1, seed=seed, workers=workers, f=f),
            train, epochs, seed)
        assert np.array_equal(model.p, ref.p)
        assert np.array_equal(model.q, ref.q)

    def test_four_threads_converge_and_account_updates(self, tiny_problem):
        train, test = tiny_problem.train, tiny_problem.test
        est = CuMFSGD(k=8, n_threads=4, lam=0.05, seed=0, workers=64, f=16)
        history = est.fit(train, epochs=5, test=test)
        assert isinstance(est.executor, ThreadedHogwild)
        assert sum(est.executor.thread_updates) == train.nnz  # last epoch
        assert len(est.executor.thread_updates) == 4
        final = history.final_test_rmse
        assert np.isfinite(final)

        serial = BatchHogwild(workers=64, f=16, seed=0)
        model = FactorModel.initialize(tiny_problem.spec.m, tiny_problem.spec.n, 8, seed=0)
        schedule = NomadSchedule()
        for epoch in range(5):
            serial.run_epoch(model, train, schedule(epoch), 0.05)
        p, q = model.as_float32()
        from repro.metrics.rmse import rmse

        assert final == pytest.approx(rmse(p, q, test), abs=0.05)

    def test_out_of_core_stages_and_converges(self, tiny_problem, tmp_path):
        train = tiny_problem.train
        store = BlockStore.create(train, 3, 3, tmp_path / "store", seed=0)
        est = CuMFSGD(k=8, n_threads=2, lam=0.05, seed=0, store=store)
        est.fit(None, epochs=2, test=tiny_problem.test)
        stage = est.executor.stage_stats
        assert sum(est.executor.thread_updates) == train.nnz
        assert stage is not None
        assert stage.blocks_loaded == 2 * len(list(store.blocks()))
        assert stage.bytes_loaded > 0
        assert np.isfinite(est.history.final_test_rmse)

    def test_one_thread_out_of_core_bit_identical_to_reference_loop(
            self, tiny_problem, tmp_path):
        """One NumPy thread replays its blocks in the order its seed stream
        draws, each through sgd_serial_update, and nothing else."""
        train = tiny_problem.train
        spec = tiny_problem.spec
        seed, lam, f, epochs = 5, 0.05, 16, 3
        store = BlockStore.create(train, 3, 2, tmp_path / "store", seed=1)
        est = CuMFSGD(k=8, n_threads=1, lam=lam, seed=seed, f=f, store=store)
        est.fit(None, epochs=epochs)

        ref = FactorModel.initialize(spec.m, spec.n, 8, seed=seed)
        (blocks,) = store.assign(1)
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        schedule = NomadSchedule()
        for epoch in range(epochs):
            lr = np.float32(schedule(epoch))
            for i in rng.permutation(len(blocks)):
                rec = store.load(*blocks[i])
                sgd_serial_update(ref.p, ref.q, rec["u"], rec["v"], rec["r"],
                                  lr, np.float32(lam), np.float32(lam),
                                  max_wave=f)
        assert est.model.p.tobytes() == ref.p.tobytes()
        assert est.model.q.tobytes() == ref.q.tobytes()

    def test_oversubscribed_out_of_core_accounts_every_block(
            self, tiny_problem, tmp_path):
        """Four threads on two or fewer cores, switching often: every
        block is staged, checked, logged and released once per epoch."""
        train = tiny_problem.train
        store = BlockStore.create(train, 4, 4, tmp_path / "store", seed=0)
        san = Sanitizer("all")
        est = CuMFSGD(k=8, n_threads=4, lam=0.05, seed=0, store=store)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with activate_sanitizer(san):
                est.fit(None, epochs=2)
        finally:
            sys.setswitchinterval(interval)
        report = san.finalize(publish=False)
        assert report.clean, "\n".join(f.format() for f in report.findings)
        assert sum(est.executor.thread_updates) == train.nnz
        assert est.executor.stage_stats.blocks_loaded == 2 * store.n_blocks
        assert report.numeric["block_checks"] == 2 * store.n_blocks
        assert report.race_stats.samples == 2 * train.nnz
        lc = report.lifecycle
        assert lc["mmaps_opened"] == lc["mmaps_released"] == 2 * store.n_blocks

    @pytest.mark.skipif(find_compiler() is None, reason="no C compiler found")
    def test_c_out_of_core_rmse_matches_numpy_per_epoch(self, tiny_problem,
                                                        tmp_path):
        store = BlockStore.create(tiny_problem.train, 3, 3,
                                  tmp_path / "store", seed=0)
        curves = {}
        for backend in ("numpy", "c"):
            est = CuMFSGD(k=8, n_threads=1, lam=0.05, seed=4,
                          backend=backend, store=store)
            history = est.fit(None, epochs=3, test=tiny_problem.test)
            curves[backend] = np.array(history.test_rmse)
        assert len(curves["c"]) == 3
        assert np.all(np.abs(curves["c"] - curves["numpy"]) < 1e-3)

    def test_more_threads_than_lanes_rejected(self):
        with pytest.raises(ValueError, match="worker lanes"):
            ThreadedHogwild(n_threads=8, workers=4)

    def test_validation(self, tiny_problem, tmp_path):
        with pytest.raises(ValueError):
            ThreadedHogwild(n_threads=0)
        with pytest.raises(ValueError, match="n_threads"):
            CuMFSGD(n_threads=0)
        with pytest.raises(ValueError, match="train is required"):
            CuMFSGD(n_threads=2).fit(None, epochs=1)
        train = tiny_problem.train
        poisoned = RatingMatrix(rows=train.rows, cols=train.cols,
                                vals=train.vals.copy(), n_rows=train.n_rows,
                                n_cols=train.n_cols)
        poisoned.vals[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            CuMFSGD(n_threads=2).fit(poisoned, epochs=1)
        store = BlockStore.create(train, 2, 2, tmp_path / "s", seed=0)
        # out of core the threads own blocks, not plan lanes
        ThreadedHogwild(n_threads=8, workers=4, store=store)
        est = CuMFSGD(n_threads=8, workers=4, store=store)
        wider = RatingMatrix(rows=train.rows, cols=train.cols,
                             vals=train.vals, n_rows=train.n_rows + 1,
                             n_cols=train.n_cols)
        with pytest.raises(ValueError, match="disagrees"):
            est.fit(wider, epochs=1)

    def test_telemetry_and_hooks(self, tiny_problem):
        """In core the kernel events are the epoch plan's waves, read off
        it after the join: three threads report a one-thread fit's events
        of the same seed, event for event."""
        hooks, one_thread = RecordingHooks(), RecordingHooks()
        collector = TelemetryCollector()
        est = CuMFSGD(k=8, n_threads=3, lam=0.05, seed=0)
        with activate(collector):
            est.fit(tiny_problem.train, epochs=2, hooks=hooks)
        CuMFSGD(k=8, n_threads=1, lam=0.05, seed=0).fit(
            tiny_problem.train, epochs=2, hooks=one_thread)
        assert len(hooks.epochs) == 2
        assert all(e.scheme == "batch_hogwild" for e in hooks.epochs)
        assert hooks.epochs[0].extra["n_threads"] == 3
        assert sum(hooks.epochs[0].extra["thread_updates"]) == (
            tiny_problem.train.nnz)
        keys = [_event_key(e) for e in hooks.kernels]
        assert keys == [_event_key(e) for e in one_thread.kernels]
        assert {e.name for e in hooks.kernels} == {"hogwild.wave"}
        assert all(e.rows is not None for e in hooks.kernels)
        assert sum(e.n_updates for e in hooks.kernels) == 2 * tiny_problem.train.nnz
        registry = collector.registry
        assert registry.value(M.THREAD_WORKERS) == 3
        per_thread = sum(
            m.value for m in registry.family(M.THREAD_WORKER_UPDATES)
        )
        assert per_thread == 2 * tiny_problem.train.nnz

    def test_out_of_core_telemetry_and_hooks(self, tiny_problem, tmp_path):
        """Out of core: one epoch event per epoch with the executor's
        extras, one block-launch event per thread, and the thread and
        staging metrics in the ambient registry."""
        train = tiny_problem.train
        store = BlockStore.create(train, 3, 3, tmp_path / "store", seed=0)
        hooks = RecordingHooks()
        collector = TelemetryCollector()
        est = CuMFSGD(k=8, n_threads=2, lam=0.05, seed=0, store=store)
        with activate(collector):
            est.fit(None, epochs=2, hooks=hooks)
        assert len(hooks.epochs) == 2
        assert all(e.scheme == "batch_hogwild" for e in hooks.epochs)
        assert hooks.epochs[0].extra["n_threads"] == 2
        assert [e.name for e in hooks.kernels] == ["threads.blocks"] * 2 * 2
        assert sum(e.n_waves for e in hooks.kernels) == 2 * store.n_blocks
        assert sum(e.n_updates for e in hooks.kernels) == 2 * train.nnz
        registry = collector.registry
        assert registry.value(M.THREAD_WORKERS) == 2
        per_thread = sum(
            m.value for m in registry.family(M.THREAD_WORKER_UPDATES)
        )
        assert per_thread == 2 * train.nnz
        assert registry.value(M.STAGE_BLOCKS_LOADED) == 2 * store.n_blocks
        assert registry.value(M.STAGE_BYTES_LOADED) > 0


class _FailingOnThread1(NumpyBackend):
    """The numpy reference, except that thread 1's shard replay fails."""

    def replay(self, ws, shard, *args, **observers):
        if threading.current_thread().name == "hogwild-1":
            raise RuntimeError("shard replay failed on thread 1")
        return super().replay(ws, shard, *args, **observers)


class TestThreadDispatch:
    def test_failing_thread_reraised_after_every_thread_joins(
            self, tiny_problem):
        est = CuMFSGD(k=8, n_threads=2, workers=32, f=16, seed=0,
                      backend=_FailingOnThread1())
        with pytest.raises(RuntimeError, match="thread 1"):
            est.fit(tiny_problem.train, epochs=1)
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("hogwild-")]

    def test_each_thread_runs_in_the_callers_context(self):
        var = contextvars.ContextVar("caller", default=None)
        token = var.set("set by the caller")
        seen = [None] * 3
        try:
            def work(tid):
                seen[tid] = (var.get(), threading.current_thread().name)

            run_threads(3, work, "probe")
        finally:
            var.reset(token)
        assert seen == [("set by the caller", f"probe-{tid}")
                        for tid in range(3)]


class TestEpochLoop:
    def test_every_recorded_epoch_is_timed(self, tiny_problem, tmp_path):
        """The one epoch loop times every executor's epochs, so any history
        yields an Eq. 7 throughput record."""
        train = tiny_problem.train
        store = BlockStore.create(train, 2, 2, tmp_path / "store", seed=0)
        for est in (
            CuMFSGD(k=8, workers=32, f=16, seed=0),
            CuMFSGD(k=8, n_threads=2, seed=0, workers=32, f=16),
            CuMFSGD(k=8, n_threads=2, seed=0, store=store),
        ):
            history = est.fit(train, epochs=2)
            assert len(history.epoch_seconds) == 2, est
            assert all(s > 0 for s in history.epoch_seconds), est
            assert ThroughputRecord.from_history(history, train.nnz).musec > 0
