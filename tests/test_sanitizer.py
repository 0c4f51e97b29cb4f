"""Adversarial suite for reprosan (``repro.san``).

The sanitizer's acceptance bar has two sides, and both are tested here:

* **clean runs never report** — serial, threaded and process executors
  under ``--sanitize all`` produce zero findings, full coverage
  accounting (``samples == epochs * nnz``), and a paired shm lifecycle
  ledger; a hypothesis sweep randomizes the schedule geometry;
* **seeded faults are always caught** — a tampered
  :class:`~repro.sched.plan.EpochPlan` (a lane duplicated within a wave,
  overlapping process shards), a NaN injected into Q, an fp64 model, and
  a leaked shared-memory segment each surface as the documented typed
  finding or :class:`~repro.san.errors.SanitizerError`, deterministically.

Also covers the crash-surfacing contract of the process pool (a worker
killed mid-epoch raises promptly instead of hanging the barrier) and the
narrowed resource-tracker shim it relies on.
"""

from __future__ import annotations

import os
import signal
import time
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hogwild import BatchHogwild
from repro.core.model import FactorModel
from repro.data.container import RatingMatrix
from repro.parallel import ProcessHogwild, ThreadedHogwild
from repro.parallel.procs import _register_skipping_shm, _SharedCluster
from repro.san import (
    SanitizerError,
    SanReport,
    activate_sanitizer,
    sanitizer_from_mode,
)
from repro.san.core import Sanitizer
from repro.san.lifecycle import track_shm
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

    def test_threads_clean(self, tiny_problem):
        train = tiny_problem.train
        san = Sanitizer("all")
        est = ThreadedHogwild(k=8, n_threads=4, lam=0.05, seed=0)
        with activate_sanitizer(san):
            est.fit(train, epochs=2)
        report = san.finalize(publish=False)
        assert report.clean, "\n".join(f.format() for f in report.findings)
        # every thread's waves reached the log: full coverage, one race
        # row per thread, and the threads really do race within waves
        assert report.race_stats.samples == 2 * train.nnz
        assert len(report.race_stats.workers) == 4
        assert 0.0 < report.race_stats.race_rate <= 1.0

    def test_procs_clean_with_full_accounting(self, tiny_problem):
        train = tiny_problem.train
        san = Sanitizer("all")
        est = ProcessHogwild(
            k=8, n_procs=2, lam=0.05, seed=0, workers=32, f=16
        )
        with activate_sanitizer(san):
            est.fit(train, epochs=2)
        report = san.finalize(publish=False)
        assert report.clean, "\n".join(f.format() for f in report.findings)
        # both workers spooled their shadow logs; nothing was lost
        assert report.race_stats.samples == 2 * train.nnz
        assert len(report.race_stats.workers) == 2
        assert 0.0 <= report.race_stats.race_rate <= 1.0
        # the shm ledger is fully paired once fit tears the cluster down
        lc = report.lifecycle
        assert lc["segments_created"] > 0
        assert lc["segments_created"] == lc["segments_unlinked"]
        assert lc["segment_opens"] == lc["segment_closes"]

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
        plan.matrix[0, 1] = plan.matrix[0, 0]  # duplicate a wave lane
        san = Sanitizer("races")
        with activate_sanitizer(san):
            sched.run_epoch(model, train, 0.008, 0.05)
        report = san.finalize(publish=False)
        kinds = {f.kind for f in report.findings}
        assert "race-double-execution" in kinds, kinds

    def test_overlapping_proc_shards_are_caught(self, tiny_problem,
                                                monkeypatch):
        """Shard tampering: widen worker 1's column shard to also cover
        worker 0's lanes. Both processes then execute the same samples —
        a cross-shard ownership violation and a within-wave overlap."""
        train = tiny_problem.train
        original = EpochPlan.shard

        def overlapping(self, n_shards):
            shards = original(self, n_shards)
            last = shards[-1]
            shards[-1] = PlanShard(index=last.index, col_lo=0,
                                   col_hi=last.col_hi)
            return shards

        monkeypatch.setattr(EpochPlan, "shard", overlapping)
        san = Sanitizer("races")
        est = ProcessHogwild(
            k=8, n_procs=2, lam=0.05, seed=0, workers=32, f=16
        )
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

    def test_leaked_shm_segment_is_reported(self):
        san = Sanitizer("races")  # lifecycle rides with race checking
        with activate_sanitizer(san):
            shm = track_shm(shared_memory.SharedMemory(create=True, size=64))
            shm.close()  # mapping released — but the name never unlinked
        report = san.finalize(publish=False)
        try:
            leaks = [f for f in report.findings
                     if f.kind == "lifecycle-shm-leak"]
            assert leaks, [f.format() for f in report.findings]
            assert any("never unlinked" in f.message for f in leaks)
        finally:
            shm.unlink()


# ---------------------------------------------------------------------------
# process-pool failure modes
# ---------------------------------------------------------------------------
class TestProcessPoolFailureModes:
    def test_worker_death_surfaces_promptly_not_a_hang(self, tiny_ratings):
        """SIGKILLing a worker mid-epoch must raise a diagnostic naming
        the worker within seconds — not stall until the 600 s barrier
        timeout."""
        init = FactorModel.initialize(10, 8, 4, seed=0)
        order = np.random.default_rng(0).permutation(
            tiny_ratings.nnz
        ).astype(np.int64)
        plan = EpochPlan(order, workers=4, f=4)
        cluster = _SharedCluster(2, None)
        try:
            cluster.start(init, plan, tiny_ratings, None, 2, 4, False, 0)
            os.kill(cluster._procs[0].pid, signal.SIGKILL)
            t0 = time.perf_counter()
            with pytest.raises(RuntimeError, match="worker 0 .*died"):
                cluster.run_epoch(plan, 0.01, 0.05, 0.05, epoch=1)
            assert time.perf_counter() - t0 < 30.0
        finally:
            cluster.close()

    def test_register_shim_drops_only_shm_rtype(self):
        calls = []
        register = _register_skipping_shm(
            lambda name, rtype: calls.append((name, rtype))
        )
        register("/psm_deadbeef", "shared_memory")
        register("/mp-sem", "semaphore")
        assert calls == [("/mp-sem", "semaphore")]

    def test_worker_sanitizer_error_reraised_in_parent(self, tiny_problem,
                                                       monkeypatch):
        """A numeric failure inside a worker process travels back to the
        parent as the same typed SanitizerError, not a bare RuntimeError."""
        train = tiny_problem.train
        bad = RatingMatrix(
            rows=train.rows, cols=train.cols,
            vals=train.vals.copy(), n_rows=train.n_rows,
            n_cols=train.n_cols, name="poisoned",
        )
        bad.vals[0] = np.float32("inf")  # poisons residuals immediately
        san = sanitizer_from_mode("numeric")
        est = ProcessHogwild(
            k=8, n_procs=2, lam=0.05, seed=0, workers=32, f=16
        )
        with activate_sanitizer(san):
            with pytest.raises(SanitizerError) as excinfo:
                est.fit(bad, epochs=1)
        assert excinfo.value.kind.startswith("numeric-")
        assert excinfo.value.worker is not None
