"""Tier-1 tests for the multiprocess executor and out-of-core block store.

Covers the contracts the parallel layer is built on:

* ``EpochPlan.shard`` — static column shards that tile every live worker
  lane exactly once, with ``live_width`` clipping padded tails;
* ``BlockStore`` — the i x j mmap grid round-trips the COO multiset, and
  the double-buffered prefetcher stages every block with honest stats;
* ``ProcessHogwild`` / ``ThreadedHogwild`` — one worker is bit-identical
  to the serial compiled-plan executor (same RNG stream, same kernels, one
  shard), and ``n_procs=4`` still converges despite real cross-process
  races;
* the epoch loop — every executor's history times its epochs;
* telemetry — both executors emit epoch events and publish their
  ``repro.proc.*`` / ``repro.thread.*`` metrics into the ambient registry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hogwild import BatchHogwild
from repro.core.lr_schedule import NomadSchedule
from repro.core.model import FactorModel
from repro.core.multi_gpu import MultiDeviceSGD
from repro.core.trainer import CuMFSGD
from repro.data.blockstore import BlockPrefetcher, BlockStore
from repro.metrics.throughput import ThroughputRecord
from repro.obs import RecordingHooks, TelemetryCollector, activate
from repro.obs.registry import M
from repro.parallel import ProcessHogwild, ThreadedHogwild
from repro.sched.plan import EpochPlan


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
        plan = EpochPlan(rng.permutation(1_000).astype(np.int64), workers=16, f=8)
        shards = plan.shard(5)
        assert [s.index for s in shards] == list(range(5))
        assert shards[0].col_lo == 0 and shards[-1].col_hi == plan.width
        for prev, cur in zip(shards, shards[1:]):
            assert prev.col_hi == cur.col_lo  # contiguous, disjoint
        assert sum(s.width for s in shards) == plan.width
        # per wave: the live slices re-cover exactly the wave's samples
        for i, length in enumerate(plan.lengths.tolist()):
            seen = []
            for s in shards:
                live = s.live_width(length)
                seen.append(plan.matrix[i, s.col_lo : s.col_lo + live])
            wave = np.concatenate(seen)
            assert np.array_equal(wave, plan.matrix[i, :length])

    def test_live_width_clips_padded_tails(self, rng):
        plan = EpochPlan(rng.permutation(100).astype(np.int64), workers=8, f=4)
        shards = plan.shard(3)
        for s in shards:
            assert s.live_width(0) == 0
            assert s.live_width(s.col_lo) == 0
            assert s.live_width(plan.width) == s.width
            assert s.live_width(s.col_lo + 1) == min(1, s.width)

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
        per_shard = [
            sum(s.live_width(length) for length in plan.lengths.tolist())
            for s in shards
        ]
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


class TestProcessHogwild:
    def test_single_proc_bit_identical_to_serial(self, tiny_problem):
        """One shard over shared memory must replay the serial compiled-plan
        executor exactly: same init, same permutation stream, same kernels."""
        train = tiny_problem.train
        spec = tiny_problem.spec
        workers, f, seed, epochs = 32, 16, 7, 3

        ref = FactorModel.initialize(spec.m, spec.n, 8, seed=seed)
        sched = BatchHogwild(workers=workers, f=f, seed=seed)
        schedule = NomadSchedule()
        for epoch in range(epochs):
            sched.run_epoch(ref, train, schedule(epoch), 0.05)

        est = ProcessHogwild(
            k=8, n_procs=1, lam=0.05, seed=seed, workers=workers, f=f
        )
        est.fit(train, epochs=epochs)
        assert np.array_equal(est.model.p, ref.p)
        assert np.array_equal(est.model.q, ref.q)

    def test_multiproc_converges_and_accounts_updates(self, tiny_problem):
        train, test = tiny_problem.train, tiny_problem.test
        est = ProcessHogwild(k=8, n_procs=4, lam=0.05, seed=0, workers=64, f=16)
        history = est.fit(train, epochs=5, test=test)
        assert sum(est.worker_updates) == train.nnz  # last epoch, exact
        assert len(est.worker_updates) == 4
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
        est = ProcessHogwild(k=8, n_procs=2, lam=0.05, seed=0, store=store)
        est.fit(None, epochs=2, test=tiny_problem.test)
        assert sum(est.worker_updates) == train.nnz
        assert est.stage_stats is not None
        assert est.stage_stats.blocks_loaded == 2 * len(list(store.blocks()))
        assert est.stage_stats.bytes_loaded > 0
        assert np.isfinite(est.history.final_test_rmse)

    def test_telemetry_and_hooks(self, tiny_problem):
        hooks = RecordingHooks()
        collector = TelemetryCollector()
        est = ProcessHogwild(k=8, n_procs=2, lam=0.05, seed=0, workers=32, f=16)
        with activate(collector):
            est.fit(tiny_problem.train, epochs=2, hooks=hooks)
        assert len(hooks.epochs) == 2
        assert all(e.scheme == "process-hogwild" for e in hooks.epochs)
        assert hooks.epochs[0].extra["n_procs"] == 2
        registry = collector.registry
        assert registry.value(M.PROC_WORKERS) == 2
        assert registry.value(M.PROC_EPOCHS) == 2
        per_worker = sum(
            m.value for m in registry.family(M.PROC_WORKER_UPDATES)
        )
        assert per_worker == 2 * tiny_problem.train.nnz
        assert registry.value(M.PROC_SHM_BYTES) > 0

    def test_validation(self, tiny_problem):
        with pytest.raises(ValueError):
            ProcessHogwild(n_procs=0)
        with pytest.raises(ValueError):
            ProcessHogwild(n_procs=8, workers=4)
        est = ProcessHogwild(n_procs=1)
        with pytest.raises(ValueError):
            est.fit(None, epochs=1)  # no ratings and no store


class TestThreadedHogwild:
    def test_one_worker_bit_identical_to_cumfsgd(self, tiny_problem):
        """Threads and procs replay the serial executor's EpochPlan: with
        one worker, both reproduce CuMFSGD's factors bit for bit."""
        train = tiny_problem.train
        workers, f, seed = 32, 16, 3
        ref = CuMFSGD(k=8, scheme="batch_hogwild", workers=workers, f=f,
                      lam=0.05, seed=seed)
        ref.fit(train, epochs=3)
        for est in (
            ThreadedHogwild(k=8, n_threads=1, lam=0.05, seed=seed,
                            workers=workers, f=f),
            ProcessHogwild(k=8, n_procs=1, lam=0.05, seed=seed,
                           workers=workers, f=f),
        ):
            est.fit(train, epochs=3)
            assert est.model.p.tobytes() == ref.model.p.tobytes(), est
            assert est.model.q.tobytes() == ref.model.q.tobytes(), est

    def test_more_threads_than_lanes_rejected(self):
        with pytest.raises(ValueError, match="worker lanes"):
            ThreadedHogwild(n_threads=8, workers=4)

    def test_telemetry_and_hooks(self, tiny_problem):
        hooks = RecordingHooks()
        collector = TelemetryCollector()
        est = ThreadedHogwild(k=8, n_threads=3, lam=0.05, seed=0)
        with activate(collector):
            est.fit(tiny_problem.train, epochs=2, hooks=hooks)
        assert len(hooks.epochs) == 2
        assert all(e.scheme == "threaded-hogwild" for e in hooks.epochs)
        assert len(hooks.kernels) == 3 * 2  # one per thread shard per epoch
        assert sum(e.n_updates for e in hooks.kernels) == 2 * tiny_problem.train.nnz
        registry = collector.registry
        assert registry.value(M.THREAD_WORKERS) == 3
        per_thread = sum(
            m.value for m in registry.family(M.THREAD_WORKER_UPDATES)
        )
        assert per_thread == 2 * tiny_problem.train.nnz


class TestEpochLoop:
    def test_every_recorded_epoch_is_timed(self, tiny_problem):
        """The one epoch loop times every executor's epochs, so any history
        yields an Eq. 7 throughput record."""
        train = tiny_problem.train
        for est in (
            CuMFSGD(k=8, workers=32, f=16, seed=0),
            ThreadedHogwild(k=8, n_threads=2, seed=0, workers=32, f=16),
            ProcessHogwild(k=8, n_procs=2, seed=0, workers=32, f=16),
        ):
            history = est.fit(train, epochs=2)
            assert len(history.epoch_seconds) == 2, est
            assert all(s > 0 for s in history.epoch_seconds), est
            assert ThroughputRecord.from_history(history, train.nnz).musec > 0


class TestMultiDeviceStore:
    def test_attach_store_runs_every_sample(self, tiny_problem, tmp_path):
        train = tiny_problem.train
        store = BlockStore.create(train, 4, 4, tmp_path / "store", seed=0)
        sgd = MultiDeviceSGD(n_devices=2, i=4, j=4, workers=16, seed=0)
        sgd.attach_store(store)
        model = FactorModel.initialize(
            tiny_problem.spec.m, tiny_problem.spec.n, 8, seed=0
        )
        n = sgd.run_epoch(model, None, 0.05, 0.05)
        assert n == train.nnz
        assert sgd.ledger.dispatches == len(list(store.blocks()))

    def test_attach_store_grid_mismatch_rejected(self, tiny_problem, tmp_path):
        store = BlockStore.create(tiny_problem.train, 2, 2, tmp_path / "s", seed=0)
        sgd = MultiDeviceSGD(n_devices=2, i=4, j=4, workers=16, seed=0)
        with pytest.raises(ValueError):
            sgd.attach_store(store)
