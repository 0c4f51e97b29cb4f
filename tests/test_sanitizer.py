"""Adversarial suite for reprosan (``repro.san``).

The sanitizer's acceptance bar has two sides, and both are tested here,
on the NumPy reference and (``TestCleanRunsOnC``, ``TestSeededFaultsOnC``)
on the compiled ``c`` kernel that launches run, where a sanitized epoch is
the same one foreign call per shard as a plain one (``TestOneReplay``):

* **clean runs never report** — the serial and threaded executors, in
  core and out of core, and the wavefront and multi-device schemes (a
  device death included), under ``--sanitize all`` produce zero findings,
  full coverage accounting (``samples == epochs * nnz``, one block check
  per staged block) and a paired mmap lifecycle ledger; a hypothesis sweep
  randomizes the schedule geometry;
* **seeded faults are always caught** — a tampered
  :class:`~repro.sched.plan.EpochPlan` (a lane duplicated within a wave,
  overlapping thread shards), a NaN or an overflowing value injected into
  Q, a NaN in a staged block, non-finite ratings in a worker thread, and
  an fp64 model each surface as the documented typed finding or
  :class:`~repro.san.errors.SanitizerError`, deterministically, naming the
  worker that tripped it (and the same worker, epoch and wave on either
  kernel).
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import c_backend, get_backend
from repro.core.hogwild import BatchHogwild
from repro.core.lr_schedule import AdaGradSchedule, NomadSchedule
from repro.core.model import FactorModel
from repro.core.multi_gpu import MultiDeviceSGD
from repro.core.trainer import CuMFSGD, run_epochs
from repro.data.blockstore import BlockPrefetcher, BlockStore
from repro.data.container import RatingMatrix
from repro.parallel import ThreadedHogwild
from repro.resilience.faults import DeviceFailure, FaultPlan
from repro.san import (
    SanitizerError,
    SanReport,
    activate_sanitizer,
    sanitizer_from_mode,
)
from repro.san.core import Sanitizer
from repro.sched.plan import EpochPlan, PlanShard

needs_cc = pytest.mark.skipif(c_backend.find_compiler() is None,
                              reason="no C compiler found")


def _serial_epochs(train, san, epochs=2, seed=3, workers=8, f=8,
                   model=None, backend=None):
    """Run serial batch-Hogwild epochs under ``san``; returns the model."""
    if model is None:
        model = FactorModel.initialize(train.n_rows, train.n_cols, 8,
                                       seed=seed)
    sched = BatchHogwild(workers=workers, f=f, seed=seed, backend=backend)
    with activate_sanitizer(san):
        for _ in range(epochs):
            sched.run_epoch(model, train, 0.008, 0.05)
    return model


#: schedule geometries of the randomized clean-run sweep
GEOMETRIES = dict(seed=st.integers(0, 2**16), workers=st.integers(2, 12),
                  f=st.integers(1, 9), nnz=st.integers(20, 70))


def _never_reports(seed, workers, f, nnz, backend):
    """One sanitized serial epoch of a random problem reports nothing."""
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
    _serial_epochs(train, san, epochs=1, seed=seed, workers=workers, f=f,
                   model=model, backend=backend)
    report = san.finalize(publish=False)
    assert report.clean, "\n".join(f.format() for f in report.findings)
    assert report.race_stats.samples == nnz


# ---------------------------------------------------------------------------
# clean runs never report
# ---------------------------------------------------------------------------
class TestCleanRuns:
    #: kernel backend of the executors (None: the NumPy reference)
    backend = None

    def test_serial_all_modes_clean(self, tiny_problem):
        train = tiny_problem.train
        san = Sanitizer("all")
        _serial_epochs(train, san, epochs=2, backend=self.backend)
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
        est = CuMFSGD(k=8, n_threads=4, lam=0.05, seed=0,
                      backend=self.backend)
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
        est = CuMFSGD(k=8, n_threads=6, lam=0.05, seed=0, workers=32, f=16,
                      backend=self.backend)
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
            k=8, n_threads=2, lam=0.05, seed=0, workers=32, f=16, store=store,
            backend=self.backend,
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
        for executor in (BatchHogwild(workers=32, f=16, seed=7,
                                      backend=self.backend),
                         ThreadedHogwild(n_threads=1, seed=7, workers=32,
                                         f=16, backend=self.backend)):
            model = FactorModel.initialize(train.n_rows, train.n_cols, 8,
                                           seed=7)
            san = Sanitizer("races")
            with activate_sanitizer(san):
                run_epochs(executor, model, train, 3,
                           schedule=NomadSchedule(), lam=0.05,
                           scheme="batch_hogwild")
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
        _serial_epochs(tiny_problem.train, san, epochs=1,
                       backend=self.backend)
        report = san.finalize(publish=False)
        state = report.as_dict()
        SanReport.validate_dict(state)  # benchmark embedding contract
        back = SanReport.from_dict(state)
        assert back.clean is report.clean
        assert back.race_stats.samples == report.race_stats.samples

    @settings(max_examples=12, deadline=None)
    @given(**GEOMETRIES)
    def test_clean_runs_never_report(self, seed, workers, f, nnz):
        """No schedule geometry makes a healthy serial run dirty."""
        _never_reports(seed, workers, f, nnz, self.backend)


@needs_cc
class TestCleanRunsOnC(TestCleanRuns):
    """The clean runs on the compiled kernel. AdaGrad steps with its own
    NumPy wave, which ``CuMFSGD`` refuses to pair with ``c``, and staging
    blocks runs no kernel, so those two stay on the class above."""

    backend = "c"
    test_adagrad_epochs_are_observed = None
    test_sanitized_prefetch_pairs_every_mmap = None

    # hypothesis runs one test function on one class, so this one is its own
    @settings(max_examples=12, deadline=None)
    @given(**GEOMETRIES)
    def test_clean_runs_never_report(self, seed, workers, f, nnz):
        """No schedule geometry makes a healthy serial run dirty."""
        _never_reports(seed, workers, f, nnz, self.backend)


@pytest.mark.parametrize("scheme", ["wavefront", "multi_device",
                                    "wavefront-threads"])
class TestBlockSchemes:
    """The wavefront and multi-device schemes record every executed grid
    block under its worker (grid row or device) and sweep the model at
    every epoch's end, so a clean report covers every sample. Wavefront
    threads make the block records themselves."""

    @staticmethod
    def _estimator(scheme):
        multi = scheme == "multi_device"
        return CuMFSGD(k=8, scheme=scheme.split("-")[0], workers=8, lam=0.05,
                       seed=0, n_devices=2 if multi else 1,
                       grid=(4, 4) if multi else (1, 1),
                       n_threads=2 if scheme.endswith("threads") else 1)

    def test_sanitized_fit_logs_every_sample(self, tiny_problem, scheme):
        train = tiny_problem.train
        san = Sanitizer("all")
        with activate_sanitizer(san):
            self._estimator(scheme).fit(train, epochs=2)
        report = san.finalize(publish=False)
        assert report.clean, "\n".join(f.format() for f in report.findings)
        assert report.race_stats.samples == 2 * train.nnz
        assert report.race_stats.epochs == 2
        assert report.numeric["model_checks"] == 2
        workers = 2 if scheme == "multi_device" else 8
        assert len(report.race_stats.workers) == workers

    def test_nan_in_q_raises_at_the_epoch_end(self, tiny_problem, scheme):
        train = tiny_problem.train
        est = self._estimator(scheme)
        est.model = FactorModel.initialize(train.n_rows, train.n_cols, 8,
                                           seed=0)
        est.model.q[5, :] = np.nan
        with activate_sanitizer(Sanitizer("numeric")):
            with pytest.raises(SanitizerError) as excinfo:
                est.fit(train, epochs=2, warm_start=True)
        assert excinfo.value.kind == "numeric-nonfinite"
        assert excinfo.value.epoch == 1


def test_blocks_moved_by_a_device_death_are_not_findings(tiny_problem):
    """Ownership is per epoch: a dead device's blocks run on survivors,
    each still once per epoch, and the report stays clean."""
    train = tiny_problem.train
    sgd = MultiDeviceSGD(n_devices=4, i=6, j=6, workers=8, seed=0)
    sgd.attach_faults(FaultPlan(device_failures=(DeviceFailure(2, 3),)))
    model = FactorModel.initialize(train.n_rows, train.n_cols, 8, seed=0)
    san = Sanitizer("all")
    with activate_sanitizer(san):
        run_epochs(sgd, model, train, 2, schedule=NomadSchedule(), lam=0.05,
                   scheme="multi_device")
    report = san.finalize(publish=False)
    assert sgd.injector.events["device_lost"] == 1
    assert report.clean, "\n".join(f.format() for f in report.findings)
    assert report.race_stats.samples == 2 * train.nnz


# ---------------------------------------------------------------------------
# seeded faults are always caught
# ---------------------------------------------------------------------------
class TestSeededFaults:
    #: kernel backend of the executors (None: the NumPy reference)
    backend = None

    def test_tampered_plan_duplicate_lane_is_caught(self, tiny_problem):
        """Duplicating one sample in a compiled plan's order = the same
        sample executed twice in one epoch; the checker must see it."""
        train = tiny_problem.train
        model = FactorModel.initialize(train.n_rows, train.n_cols, 8, seed=3)
        sched = BatchHogwild(workers=8, f=8, seed=3, backend=self.backend)
        plan = sched.compiled_plan(train.nnz)
        # the epoch re-shuffles the order, which keeps both copies
        plan.order[plan.f] = plan.order[0]
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
                                   plan=self)
            return shards

        monkeypatch.setattr(EpochPlan, "shard", overlapping)
        san = Sanitizer("races")
        est = CuMFSGD(k=8, n_threads=2, lam=0.05, seed=0, workers=32, f=16,
                      backend=self.backend)
        with activate_sanitizer(san):
            est.fit(train, epochs=1)
        report = san.finalize(publish=False)
        kinds = {f.kind for f in report.findings}
        assert "race-ownership" in kinds, kinds
        assert "race-overlap" in kinds, kinds

    def _poisoned_q(self, train, value):
        """A serial epoch after ``value`` is written into one row of Q;
        returns the sentry's error and its wave-check count."""
        model = FactorModel.initialize(train.n_rows, train.n_cols, 8, seed=3)
        model.q[5, :] = value
        san = Sanitizer("numeric")
        with pytest.raises(SanitizerError) as excinfo:
            _serial_epochs(train, san, epochs=1, model=model,
                           backend=self.backend)
        return excinfo.value, san.numeric.wave_checks

    def test_nan_injected_into_q_raises_typed_error(self, tiny_problem):
        """The first sampled wave whose residuals the NaN reached raises,
        at the same execution point on either kernel: worker 0, epoch 1,
        wave 48, after the sampled waves 0, 16 and 32 passed."""
        error, checks = self._poisoned_q(tiny_problem.train, np.nan)
        assert error.kind == "numeric-nonfinite"
        assert (error.worker, error.epoch, error.wave, checks) == (0, 1, 48, 4)

    def test_overflowing_q_raises_typed_error(self, tiny_problem):
        """A finite but huge factor row drives the residuals it touches past
        the overflow guard, caught at the same wave as the NaN."""
        error, checks = self._poisoned_q(tiny_problem.train, 1e4)
        assert error.kind == "numeric-overflow"
        assert (error.worker, error.epoch, error.wave, checks) == (0, 1, 48, 4)

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
        est = CuMFSGD(k=8, n_threads=2, lam=0.05, seed=0, store=store,
                      backend=self.backend)
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
        executor = ThreadedHogwild(n_threads=2, seed=0, workers=32, f=16,
                                   backend=self.backend)
        model = FactorModel.initialize(bad.n_rows, bad.n_cols, 8, seed=0)
        with activate_sanitizer(san):
            with pytest.raises(SanitizerError) as excinfo:
                run_epochs(executor, model, bad, 1, schedule=NomadSchedule(),
                           lam=0.05, scheme="batch_hogwild")
        assert excinfo.value.kind.startswith("numeric-")
        assert excinfo.value.worker is not None


@needs_cc
class TestSeededFaultsOnC(TestSeededFaults):
    """The seeded faults on the compiled kernel: the same findings."""

    backend = "c"

    def test_fp64_model_raises_leak_error(self, tiny_problem):
        """``c`` rejects fp64 factors before any wave, so the fp64-leak
        probe of the Python wave loop has nothing to catch here."""
        train = tiny_problem.train
        base = FactorModel.initialize(train.n_rows, train.n_cols, 8, seed=3)
        model = FactorModel(
            p=base.p.astype(np.float64), q=base.q.astype(np.float64)
        )
        with pytest.raises(ValueError, match="fp32 or fp16"):
            _serial_epochs(train, Sanitizer("numeric"), epochs=1,
                           model=model, backend="c")


# ---------------------------------------------------------------------------
# one compiled replay, sanitized or not
# ---------------------------------------------------------------------------
@needs_cc
class TestOneReplay:
    """On ``c`` a sanitized epoch is the call a plain one makes: one
    ``cumf_replay`` per shard, which also reports the sampled residual
    peaks, so the sanitizer watches the kernel the run ships."""

    @staticmethod
    def _storage(half):
        if half and not get_backend("c").fp16:
            pytest.skip("fp16 storage runs the c kernel only with F16C")
        return half

    def _fit(self, train, half, n_threads=1, mode=None):
        est = CuMFSGD(k=8, n_threads=n_threads, lam=0.05, seed=0, workers=32,
                      f=16, half_precision=self._storage(half), backend="c")
        san = sanitizer_from_mode(mode)
        with activate_sanitizer(san):
            est.fit(train, epochs=2)
        report = None if san is None else san.finalize(publish=False)
        return est.model, report

    @pytest.mark.parametrize("half", [False, True], ids=["fp32", "fp16"])
    def test_sanitized_factors_equal_unsanitized(self, tiny_problem, half):
        """One thread, sanitized in full or not: the same bytes."""
        train = tiny_problem.train
        plain, _ = self._fit(train, half)
        checked, report = self._fit(train, half, mode="all")
        assert report.clean, "\n".join(f.format() for f in report.findings)
        assert report.race_stats.samples == 2 * train.nnz
        assert checked.p.tobytes() == plain.p.tobytes()
        assert checked.q.tobytes() == plain.q.tobytes()

    @pytest.mark.parametrize("half", [False, True], ids=["fp32", "fp16"])
    @pytest.mark.parametrize("n_threads", [1, 2])
    @pytest.mark.parametrize("mode", ["races", "numeric", "all"])
    def test_sanitized_epoch_is_one_compiled_replay(self, tiny_problem,
                                                    monkeypatch, mode,
                                                    n_threads, half):
        """Every sanitized worker-epoch is one foreign call, and the Python
        wave loop never runs; the checks still see every epoch."""
        from repro.backends import base

        def no_wave_loop(*args, **kwargs):
            raise AssertionError("a sanitized c epoch entered replay_waves")

        monkeypatch.setattr(base, "replay_waves", no_wave_loop)
        monkeypatch.setattr(c_backend, "replay_waves", no_wave_loop)
        backend = get_backend("c")
        calls = []
        launch = backend._replay

        def counted(*args):
            calls.append(args[12:14])  # the shard's lanes [lo, hi)
            return launch(*args)

        monkeypatch.setattr(backend, "_replay", counted)
        train = tiny_problem.train
        _, report = self._fit(train, half, n_threads, mode)
        assert report.clean, "\n".join(f.format() for f in report.findings)
        assert len(calls) == 2 * n_threads
        assert len(set(calls)) == n_threads
        if mode != "numeric":
            assert report.race_stats.samples == 2 * train.nnz
        if mode != "races":
            assert report.numeric["wave_checks"] > 0
            assert report.numeric["model_checks"] == 2
