"""Tests for repro.core.wavefront.WavefrontScheduler."""

import sys
import threading

import numpy as np
import pytest

from repro.backends import available_backends
from repro.backends.numpy_backend import NumpyBackend
from repro.core.model import FactorModel
from repro.core.trainer import CuMFSGD
from repro.core.wavefront import WavefrontScheduler
from repro.metrics.rmse import rmse
from repro.obs.hooks import RecordingHooks
from repro.san import activate_sanitizer
from repro.san.core import Sanitizer


class TestPreparation:
    def test_default_grid_is_s_by_2s(self):
        sched = WavefrontScheduler(workers=6)
        assert sched.col_blocks == 12

    def test_blocks_cover_all_samples(self, tiny_problem):
        sched = WavefrontScheduler(workers=4, seed=0)
        sched.prepare(tiny_problem.train)
        total = sum(
            len(sched.block_samples(w, c))
            for w in range(4)
            for c in range(int(sched.col_blocks))
        )
        assert total == tiny_problem.train.nnz

    def test_block_samples_in_bounds(self, tiny_problem):
        sched = WavefrontScheduler(workers=4, seed=0)
        sched.prepare(tiny_problem.train)
        m, n = tiny_problem.train.shape
        row_edges = np.linspace(0, m, 5).astype(int)
        col_edges = np.linspace(0, n, 9).astype(int)
        idx = sched.block_samples(2, 3)
        rows = tiny_problem.train.rows[idx]
        cols = tiny_problem.train.cols[idx]
        assert np.all((rows >= row_edges[2]) & (rows < row_edges[3]))
        assert np.all((cols >= col_edges[3]) & (cols < col_edges[4]))

    def test_block_samples_requires_prepare(self):
        with pytest.raises(RuntimeError, match="prepare"):
            WavefrontScheduler(workers=2).block_samples(0, 0)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_invalid_workers(self, workers):
        with pytest.raises(ValueError):
            WavefrontScheduler(workers=workers)


class TestEpoch:
    def test_update_count_equals_nnz(self, tiny_problem):
        sched = WavefrontScheduler(workers=4, seed=0)
        model = FactorModel.initialize(
            tiny_problem.spec.m, tiny_problem.spec.n, 8, seed=0
        )
        n = sched.run_epoch(model, tiny_problem.train, 0.05, 0.05)
        assert n == tiny_problem.train.nnz

    def test_rounds_at_least_col_blocks(self, tiny_problem):
        """Each worker visits every column block once, so an epoch needs at
        least col_blocks rounds; contention adds more."""
        sched = WavefrontScheduler(workers=4, seed=0)
        model = FactorModel.initialize(
            tiny_problem.spec.m, tiny_problem.spec.n, 8, seed=0
        )
        sched.run_epoch(model, tiny_problem.train, 0.05, 0.05)
        assert sched.last_epoch_rounds >= sched.col_blocks

    def test_convergence(self, tiny_problem):
        sched = WavefrontScheduler(workers=4, seed=0)
        model = FactorModel.initialize(
            tiny_problem.spec.m, tiny_problem.spec.n, 8, seed=0
        )
        p, q = model.as_float32()
        before = rmse(p, q, tiny_problem.test)
        for _ in range(3):
            sched.run_epoch(model, tiny_problem.train, 0.08, 0.05)
        p, q = model.as_float32()
        assert rmse(p, q, tiny_problem.test) < before

    def test_wait_events_counted_under_contention(self, tiny_problem):
        """With a tight grid (c == s) workers must collide on columns."""
        sched = WavefrontScheduler(workers=6, col_blocks=6, seed=0)
        model = FactorModel.initialize(
            tiny_problem.spec.m, tiny_problem.spec.n, 8, seed=0
        )
        sched.run_epoch(model, tiny_problem.train, 0.05, 0.05)
        assert sched.lock_stats.waits > 0

    def test_epoch_deterministic_given_seed(self, tiny_problem):
        models = []
        for _ in range(2):
            sched = WavefrontScheduler(workers=4, seed=9)
            model = FactorModel.initialize(
                tiny_problem.spec.m, tiny_problem.spec.n, 8, seed=0
            )
            sched.run_epoch(model, tiny_problem.train, 0.05, 0.05)
            models.append(model)
        assert np.array_equal(models[0].p, models[1].p)

    def test_reprepare_on_new_ratings(self, tiny_problem, small_problem):
        sched = WavefrontScheduler(workers=4, seed=0)
        model_a = FactorModel.initialize(
            tiny_problem.spec.m, tiny_problem.spec.n, 8, seed=0
        )
        sched.run_epoch(model_a, tiny_problem.train, 0.05, 0.05)
        model_b = FactorModel.initialize(
            small_problem.spec.m, small_problem.spec.n, 8, seed=0
        )
        n = sched.run_epoch(model_b, small_problem.train, 0.05, 0.05)
        assert n == small_problem.train.nnz


class TestThreads:
    def test_every_block_once_under_a_short_switch_interval(
            self, tiny_problem):
        """Stress: more threads than cores on a tight grid, the interpreter
        switching threads every microsecond, on every available backend (on
        ``c`` the blocks also run outside the GIL, at once). Every grid
        block still runs exactly once per epoch, the sanitizer sees no
        double execution, and the fit finishes."""
        for backend in available_backends():
            hooks, san = RecordingHooks(), Sanitizer("races")
            est = CuMFSGD(k=8, scheme="wavefront", workers=8, col_blocks=8,
                          n_threads=4, seed=0, backend=backend)

            def fit():
                with activate_sanitizer(san):
                    est.fit(tiny_problem.train, epochs=2, hooks=hooks)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                runner = threading.Thread(target=fit, daemon=True)
                runner.start()
                runner.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not runner.is_alive(), backend
            assert est.history.updates == [tiny_problem.train.nnz] * 2
            blocks = [(w, c) for w in range(8) for c in range(8)]
            assert sorted(e.block for e in hooks.batches) == sorted(blocks * 2)
            report = san.finalize(publish=False)
            assert report.clean, "\n".join(f.format() for f in report.findings)
            assert report.race_stats.samples == 2 * tiny_problem.train.nnz

    def test_a_failing_block_frees_its_columns(self, tiny_problem):
        """A block that raises hands its round's columns back: the other
        thread still finishes its row, and the fit re-raises the failure
        instead of hanging on a column nobody will release."""
        # seed 2: rows 0 and 1 start on different columns, so row 1 fails
        # holding the column row 0 needs next
        rng = np.random.default_rng(2)
        assert rng.permutation(2)[0] != rng.permutation(2)[0]
        failed = threading.Event()

        class Flaky(NumpyBackend):
            """Row 1's thread fails its first block; row 0's thread runs
            its blocks only once that has happened."""

            def serial_update(self, *args, **kwargs):
                name = threading.current_thread().name
                if name == "wavefront-1":
                    failed.set()
                    raise RuntimeError("block failed")
                if name == "wavefront-0":
                    failed.wait(timeout=10)
                return super().serial_update(*args, **kwargs)

        errors = []

        def fit():
            est = CuMFSGD(k=8, scheme="wavefront", workers=2, col_blocks=2,
                          n_threads=2, seed=2, backend=Flaky())
            try:
                est.fit(tiny_problem.train, epochs=1)
            except RuntimeError as exc:
                errors.append(exc)

        runner = threading.Thread(target=fit, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert [str(exc) for exc in errors] == ["block failed"]
