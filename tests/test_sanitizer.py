"""Adversarial suite for reprosan (``repro.san``).

The sanitizer's acceptance bar has two sides, and both are tested here:

* **clean runs never report** — the serial and threaded executors, in
  core and out of core, under ``--sanitize all`` produce zero findings,
  full coverage accounting (``samples == epochs * nnz``, one block check
  per staged block) and a paired mmap lifecycle ledger; a hypothesis sweep
  randomizes the schedule geometry;
* **seeded faults are always caught** — a tampered
  :class:`~repro.sched.plan.EpochPlan` (a lane duplicated within a wave,
  overlapping thread shards), a NaN injected into Q or into a staged
  block, non-finite ratings in a worker thread, and an fp64 model each
  surface as the documented typed finding or
  :class:`~repro.san.errors.SanitizerError`, deterministically, naming the
  worker that tripped it.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hogwild import BatchHogwild
from repro.core.lr_schedule import AdaGradSchedule, NomadSchedule
from repro.core.model import FactorModel
from repro.core.trainer import CuMFSGD, run_epochs
from repro.data.blockstore import BlockPrefetcher, BlockStore
from repro.data.container import RatingMatrix
from repro.parallel import ThreadedHogwild
from repro.san import (
    SanitizerError,
    SanReport,
    activate_sanitizer,
    sanitizer_from_mode,
)
from repro.san.core import Sanitizer
from repro.sched.plan import EpochPlan, PlanShard


def _serial_epochs(train, san, epochs=2, seed=3, workers=8, f=8,
                   model=None, shuffle=True):
    """Run serial batch-Hogwild epochs under ``san``; returns the model."""
    if model is None:
        model = FactorModel.initialize(train.n_rows, train.n_cols, 8,
                                       seed=seed)
    sched = BatchHogwild(workers=workers, f=f, seed=seed,
                         shuffle_each_epoch=shuffle)
    with activate_sanitizer(san):
        for _ in range(epochs):
            sched.run_epoch(model, train, 0.008, 0.05)
    return model


# ---------------------------------------------------------------------------
# clean runs never report
# ---------------------------------------------------------------------------
class TestCleanRuns:
    def test_serial_all_modes_clean(self, tiny_problem):
        train = tiny_problem.train
        san = Sanitizer("all")
        _serial_epochs(train, san, epochs=2)
        report = san.finalize(publish=False)
        assert report.clean, "\n".join(f.format() for f in report.findings)
        # coverage accounting: every sample of every epoch was logged
        assert report.race_stats.samples == 2 * train.nnz
        assert report.race_stats.epochs == 2
        # one serial worker cannot race with itself
        assert report.race_stats.race_rate == 0.0
        assert report.numeric["wave_checks"] > 0
        assert report.numeric["model_checks"] == 2

    def test_adagrad_epochs_are_observed(self, tiny_problem):
        """AdaGrad's epochs run the serial wave loop, and the sanitizer
        observes them as it does serial ones: a clean report means every
        sample was logged and waves were checked, not that nothing was."""
        train = tiny_problem.train
        san = Sanitizer("all")
        est = CuMFSGD(k=8, schedule=AdaGradSchedule(0.1), lam=0.05, seed=0)
        with activate_sanitizer(san):
            est.fit(train, epochs=2)
        report = san.finalize(publish=False)
        assert report.clean, "\n".join(f.format() for f in report.findings)
        assert report.race_stats.samples == 2 * train.nnz
        assert report.race_stats.epochs == 2
        assert report.numeric["wave_checks"] > 0
        assert report.numeric["model_checks"] == 2

    def test_threads_clean(self, tiny_problem):
        train = tiny_problem.train
        san = Sanitizer("all")
        est = CuMFSGD(k=8, n_threads=4, lam=0.05, seed=0)
        with activate_sanitizer(san):
            est.fit(train, epochs=2)
        report = san.finalize(publish=False)
        assert report.clean, "\n".join(f.format() for f in report.findings)
        # every thread's waves reached the log: full coverage, one race
        # row per thread, and the threads really do race within waves
        assert report.race_stats.samples == 2 * train.nnz
        assert len(report.race_stats.workers) == 4
        assert 0.0 < report.race_stats.race_rate <= 1.0

    def test_oversubscribed_threads_log_every_worker_epoch(self,
                                                           tiny_problem):
        """Six threads on two or fewer cores, switching often, append
        their epoch records to one shared log: none is lost, so the
        report covers every sample of every epoch under six workers."""
        train = tiny_problem.train
        san = Sanitizer("all")
        est = CuMFSGD(k=8, n_threads=6, lam=0.05, seed=0, workers=32, f=16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with activate_sanitizer(san):
                est.fit(train, epochs=3)
        finally:
            sys.setswitchinterval(interval)
        report = san.finalize(publish=False)
        assert report.clean, "\n".join(f.format() for f in report.findings)
        assert report.race_stats.samples == 3 * train.nnz
        assert report.race_stats.epochs == 3
        assert len(report.race_stats.workers) == 6
        assert report.numeric["model_checks"] == 3

    @pytest.mark.parametrize("out_of_core", [False, True],
                             ids=["in-core", "out-of-core"])
    def test_threads_clean_with_full_accounting(self, tiny_problem, tmp_path,
                                                out_of_core):
        train = tiny_problem.train
        store = (BlockStore.create(train, 3, 3, tmp_path / "store", seed=0)
                 if out_of_core else None)
        san = Sanitizer("all")
        est = CuMFSGD(
            k=8, n_threads=2, lam=0.05, seed=0, workers=32, f=16, store=store
        )
        with activate_sanitizer(san):
            est.fit(None if out_of_core else train, epochs=2)
        report = san.finalize(publish=False)
        assert report.clean, "\n".join(f.format() for f in report.findings)
        # both threads logged their waves or blocks; nothing was lost
        assert report.race_stats.samples == 2 * train.nnz
        assert len(report.race_stats.workers) == 2
        assert 0.0 <= report.race_stats.race_rate <= 1.0
        if out_of_core:
            # the worker threads see the caller's sanitizer: every staged
            # block was checked and its mmap released
            assert report.numeric["block_checks"] == 2 * store.n_blocks
            lc = report.lifecycle
            assert lc["mmaps_opened"] == lc["mmaps_released"] == (
                2 * store.n_blocks)

    def test_sanitized_prefetch_pairs_every_mmap(self, tiny_problem,
                                                 tmp_path):
        """The loader thread loads shards in the consumer's context, so
        the lifecycle ledger sees every staged mmap."""
        store = BlockStore.create(tiny_problem.train, 3, 3,
                                  tmp_path / "store", seed=0)
        san = Sanitizer("all")
        with activate_sanitizer(san):
            staged = sum(len(rec) for _, rec in
                         BlockPrefetcher(store, list(store.blocks())))
        assert staged == tiny_problem.train.nnz
        lc = san.finalize(publish=False).lifecycle
        assert lc["mmaps_opened"] == lc["mmaps_released"] == 9

    def test_serial_and_one_thread_log_the_same_accesses(self, tiny_problem):
        """Serial and one racing thread run one capture path: a seeded
        fit on each logs the same (worker, epoch, wave, kind, row, col)
        accesses and ends with the same factors."""
        train = tiny_problem.train
        runs = []
        for executor in (BatchHogwild(workers=32, f=16, seed=7),
                         ThreadedHogwild(n_threads=1, seed=7, workers=32,
                                         f=16)):
            model = FactorModel.initialize(train.n_rows, train.n_cols, 8,
                                           seed=7)
            san = Sanitizer("races")
            with activate_sanitizer(san):
                run_epochs(executor, model, train, 3,
                           schedule=NomadSchedule(), lam=0.05,
                           scheme="batch_hogwild", k=8)
            runs.append((san.race_log.flatten(), model))
        (serial_log, serial), (thread_log, threaded) = runs
        assert len(serial_log["row"]) == 3 * train.nnz
        assert serial_log.keys() == thread_log.keys()
        for key, column in serial_log.items():
            assert column.dtype == thread_log[key].dtype, key
            assert np.array_equal(column, thread_log[key]), key
        assert serial.p.tobytes() == threaded.p.tobytes()
        assert serial.q.tobytes() == threaded.q.tobytes()

    def test_report_round_trips_and_validates(self, tiny_problem):
        san = Sanitizer("all")
        _serial_epochs(tiny_problem.train, san, epochs=1)
        report = san.finalize(publish=False)
        state = report.as_dict()
        SanReport.validate_dict(state)  # benchmark embedding contract
        back = SanReport.from_dict(state)
        assert back.clean is report.clean
        assert back.race_stats.samples == report.race_stats.samples

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        workers=st.integers(2, 12),
        f=st.integers(1, 9),
        nnz=st.integers(20, 70),
    )
    def test_clean_runs_never_report(self, seed, workers, f, nnz):
        """No schedule geometry makes a healthy serial run dirty."""
        rng = np.random.default_rng(seed)
        m, n = 12, 10
        keys = rng.choice(m * n, size=nnz, replace=False)
        train = RatingMatrix(
            rows=(keys // n).astype(np.int32),
            cols=(keys % n).astype(np.int32),
            vals=rng.normal(size=nnz).astype(np.float32),
            n_rows=m, n_cols=n, name="hyp",
        )
        model = FactorModel.initialize(m, n, 4, seed=seed)
        san = Sanitizer("all")
        _serial_epochs(train, san, epochs=1, seed=seed, workers=workers,
                       f=f, model=model)
        report = san.finalize(publish=False)
        assert report.clean, "\n".join(f.format() for f in report.findings)
        assert report.race_stats.samples == nnz


# ---------------------------------------------------------------------------
# seeded faults are always caught
# ---------------------------------------------------------------------------
class TestSeededFaults:
    def test_tampered_plan_duplicate_lane_is_caught(self, tiny_problem):
        """Duplicating one lane of a compiled plan = the same sample
        executed twice in one epoch; the checker must see it."""
        train = tiny_problem.train
        model = FactorModel.initialize(train.n_rows, train.n_cols, 8, seed=3)
        sched = BatchHogwild(workers=8, f=8, seed=3,
                             shuffle_each_epoch=False)
        plan = sched.compiled_plan(train.nnz)
        plan.order[plan.f] = plan.order[0]  # lane 1 of wave 0 repeats lane 0
        san = Sanitizer("races")
        with activate_sanitizer(san):
            sched.run_epoch(model, train, 0.008, 0.05)
        report = san.finalize(publish=False)
        kinds = {f.kind for f in report.findings}
        assert "race-double-execution" in kinds, kinds

    def test_overlapping_thread_shards_are_caught(self, tiny_problem,
                                                  monkeypatch):
        """Shard tampering: widen worker 1's column shard to also cover
        worker 0's lanes. Both threads then execute the same samples —
        a cross-shard ownership violation and a within-wave overlap."""
        train = tiny_problem.train
        original = EpochPlan.shard

        def overlapping(self, n_shards):
            shards = original(self, n_shards)
            last = shards[-1]
            shards[-1] = PlanShard(last.index, 0, last.col_hi,
                                   np.clip(self.lengths, 0, last.col_hi),
                                   self.version, plan=self)
            return shards

        monkeypatch.setattr(EpochPlan, "shard", overlapping)
        san = Sanitizer("races")
        est = CuMFSGD(k=8, n_threads=2, lam=0.05, seed=0, workers=32, f=16)
        with activate_sanitizer(san):
            est.fit(train, epochs=1)
        report = san.finalize(publish=False)
        kinds = {f.kind for f in report.findings}
        assert "race-ownership" in kinds, kinds
        assert "race-overlap" in kinds, kinds

    def test_nan_injected_into_q_raises_typed_error(self, tiny_problem):
        train = tiny_problem.train
        model = FactorModel.initialize(train.n_rows, train.n_cols, 8, seed=3)
        model.q[5, :] = np.nan
        san = Sanitizer("numeric")
        with pytest.raises(SanitizerError) as excinfo:
            _serial_epochs(train, san, epochs=1, model=model)
        assert excinfo.value.kind == "numeric-nonfinite"
        # the error pins the offending execution point
        assert excinfo.value.epoch is not None

    def test_fp64_model_raises_leak_error(self, tiny_problem):
        train = tiny_problem.train
        base = FactorModel.initialize(train.n_rows, train.n_cols, 8, seed=3)
        model = FactorModel(
            p=base.p.astype(np.float64), q=base.q.astype(np.float64)
        )
        san = Sanitizer("numeric")
        with pytest.raises(SanitizerError) as excinfo:
            _serial_epochs(train, san, epochs=1, model=model)
        assert excinfo.value.kind == "numeric-fp64-leak"

    def test_poisoned_block_names_its_thread(self, tiny_problem, tmp_path):
        """A NaN rating in a block only thread 1 owns fails that block's
        staging check, naming the block and worker 1."""
        store = BlockStore.create(tiny_problem.train, 3, 3,
                                  tmp_path / "store", seed=0)
        coords = store.assign(2)[1][0]
        path = store.path(*coords)
        rec = np.load(path)
        rec["r"][0] = np.nan
        np.save(path, rec)
        est = CuMFSGD(k=8, n_threads=2, lam=0.05, seed=0, store=store)
        with activate_sanitizer(Sanitizer("numeric")):
            with pytest.raises(SanitizerError) as excinfo:
                est.fit(None, epochs=1)
        assert excinfo.value.kind == "numeric-nonfinite"
        assert str(coords) in str(excinfo.value)
        assert excinfo.value.worker == 1

    def test_worker_sanitizer_error_reraised_in_parent(self, tiny_problem):
        """A numeric failure inside a worker thread reaches the caller as
        the same typed SanitizerError, naming the worker. The executor
        runs under the bare epoch loop: ``CuMFSGD.fit`` would reject the
        poisoned ratings before any thread started."""
        train = tiny_problem.train
        bad = RatingMatrix(
            rows=train.rows, cols=train.cols,
            vals=train.vals.copy(), n_rows=train.n_rows,
            n_cols=train.n_cols, name="poisoned",
        )
        bad.vals[0] = np.float32("inf")  # poisons residuals immediately
        san = sanitizer_from_mode("numeric")
        executor = ThreadedHogwild(n_threads=2, seed=0, workers=32, f=16)
        model = FactorModel.initialize(bad.n_rows, bad.n_cols, 8, seed=0)
        with activate_sanitizer(san):
            with pytest.raises(SanitizerError) as excinfo:
                run_epochs(executor, model, bad, 1, schedule=NomadSchedule(),
                           lam=0.05, scheme="batch_hogwild", k=8)
        assert excinfo.value.kind.startswith("numeric-")
        assert excinfo.value.worker is not None
