"""Tests for the extension features: ADAGRAD cuMF_SGD (the paper's stated
future work) and the real-threads Hogwild and wavefront executors."""

import numpy as np
import pytest

from repro.core.adagrad import AdaGradHogwild
from repro.core.hogwild import BatchHogwild
from repro.core.lr_schedule import AdaGradSchedule
from repro.core.model import FactorModel
from repro.core.trainer import CuMFSGD
from repro.core.wavefront import WavefrontScheduler
from repro.parallel.threads import ThreadedHogwild


class TestAdaGradHogwild:
    def test_epoch_processes_all_samples(self, tiny_problem):
        exe = AdaGradHogwild(workers=16, f=32, seed=0, schedule=AdaGradSchedule(0.1))
        model = FactorModel.initialize(tiny_problem.spec.m, tiny_problem.spec.n, 8, seed=0)
        n = exe.run_epoch(model, tiny_problem.train, lr=0.0, lam_p=0.05)
        assert n == tiny_problem.train.nnz

    def test_accumulators_grow_only_on_touched_rows(self, tiny_problem):
        sched = AdaGradSchedule(0.1)
        exe = AdaGradHogwild(workers=16, f=32, seed=0, schedule=sched)
        model = FactorModel.initialize(tiny_problem.spec.m, tiny_problem.spec.n, 8, seed=0)
        exe.run_epoch(model, tiny_problem.train, 0.0, 0.05)
        touched = np.unique(tiny_problem.train.rows)
        untouched = np.setdiff1d(np.arange(tiny_problem.spec.m), touched)
        assert float(sched._accum_p[touched].sum()) > 0
        if len(untouched):
            assert float(sched._accum_p[untouched].sum()) == 0.0

    def test_converges(self, tiny_problem):
        exe = AdaGradHogwild(workers=16, f=32, seed=0, schedule=AdaGradSchedule(0.2))
        model = FactorModel.initialize(tiny_problem.spec.m, tiny_problem.spec.n, 8, seed=0)
        from repro.metrics.rmse import rmse

        p, q = model.as_float32()
        before = rmse(p, q, tiny_problem.test)
        for _ in range(4):
            exe.run_epoch(model, tiny_problem.train, 0.0, 0.05)
        p, q = model.as_float32()
        assert rmse(p, q, tiny_problem.test) < before

    def test_trainer_dispatches_to_adagrad(self, tiny_problem):
        est = CuMFSGD(k=8, workers=16, schedule=AdaGradSchedule(0.2), seed=1)
        assert isinstance(est._make_executor(), AdaGradHogwild)
        hist = est.fit(tiny_problem.train, epochs=4, test=tiny_problem.test)
        assert hist.test_rmse[-1] < hist.test_rmse[0]

    @pytest.mark.parametrize("backend", ["c", "auto"])
    def test_other_backends_rejected(self, backend):
        """AdaGrad's wave runs only the numpy kernels, so the estimator
        refuses another backend instead of ignoring it."""
        with pytest.raises(ValueError, match="numpy kernels"):
            CuMFSGD(schedule=AdaGradSchedule(), backend=backend)
        CuMFSGD(schedule=AdaGradSchedule(), backend="numpy")

    @pytest.mark.parametrize("scheme", ["wavefront", "multi_device"])
    def test_other_schemes_rejected(self, scheme):
        """AdaGrad's per-coordinate accumulators live in its batch-Hogwild!
        executor, so the estimator refuses the block schemes instead of
        training them at the schedule's constant base rate."""
        with pytest.raises(ValueError, match=f"AdaGradSchedule.*'{scheme}'"):
            CuMFSGD(scheme=scheme, schedule=AdaGradSchedule(0.1))

    def test_adagrad_early_progress_strong(self, tiny_problem):
        """ADAGRAD's adaptive rates give fast first-epoch progress — the
        faster-convergence motivation the paper cites for BIDMach."""
        ada = CuMFSGD(k=8, workers=16, schedule=AdaGradSchedule(0.2), seed=1)
        ha = ada.fit(tiny_problem.train, epochs=2, test=tiny_problem.test)
        assert ha.test_rmse[0] < 0.75


class TestThreadedHogwild:
    def test_converges_with_real_races(self, tiny_problem):
        est = CuMFSGD(k=8, n_threads=4, lam=0.05, seed=0)
        hist = est.fit(tiny_problem.train, epochs=4, test=tiny_problem.test)
        assert hist.test_rmse[-1] < hist.test_rmse[0]
        assert hist.final_test_rmse < 0.75

    def test_all_threads_participate(self, tiny_problem):
        est = CuMFSGD(k=8, n_threads=4, seed=0)
        est.fit(tiny_problem.train, epochs=1)
        counts = est.executor.thread_updates
        assert len(counts) == 4
        assert all(c > 0 for c in counts)
        assert sum(counts) == tiny_problem.train.nnz

    def test_single_thread_equivalent_to_serial(self, tiny_problem):
        """One thread without a store is the serial executor itself."""
        est = CuMFSGD(k=8, n_threads=1, seed=0)
        hist = est.fit(tiny_problem.train, epochs=3, test=tiny_problem.test)
        assert type(est.executor) is BatchHogwild
        assert hist.test_rmse[-1] < hist.test_rmse[0]

    def test_score_and_validation(self, tiny_problem):
        with pytest.raises(ValueError):
            ThreadedHogwild(n_threads=0)
        est = CuMFSGD(k=8, n_threads=2, seed=0)
        with pytest.raises(RuntimeError):
            est.score(tiny_problem.test)
        est.fit(tiny_problem.train, epochs=1, test=tiny_problem.test)
        assert est.score(tiny_problem.test) == pytest.approx(
            est.history.final_test_rmse, rel=1e-5
        )

    def test_threaded_matches_simulated_convergence(self, tiny_problem):
        """Real races and simulated races land at comparable RMSE — the
        justification for the deterministic wave engine."""
        threaded = CuMFSGD(k=8, n_threads=4, lam=0.05, seed=0)
        ht = threaded.fit(tiny_problem.train, epochs=5, test=tiny_problem.test)
        simulated = CuMFSGD(k=8, scheme="batch_hogwild", workers=4, lam=0.05, seed=0)
        hs = simulated.fit(tiny_problem.train, epochs=5, test=tiny_problem.test)
        assert ht.final_test_rmse == pytest.approx(hs.final_test_rmse, rel=0.05)


class TestThreadedWavefront:
    """``CuMFSGD(scheme="wavefront", n_threads=N)``: N OS threads share one
    column-lock array, each owning a run of grid rows (§5.2, Fig. 6)."""

    def test_converges_and_counts(self, tiny_problem):
        est = CuMFSGD(k=8, scheme="wavefront", workers=4, lam=0.05, seed=0,
                      n_threads=2)
        hist = est.fit(tiny_problem.train, epochs=4, test=tiny_problem.test)
        assert hist.test_rmse[-1] < hist.test_rmse[0]
        assert hist.updates == [tiny_problem.train.nnz] * 4
        locks = est.executor.last_epoch_locks
        # every grant was released: one per grid block
        assert locks.attempts - locks.waits == locks.releases == 4 * 8

    def test_contention_happens_on_tight_grid(self, tiny_problem):
        est = CuMFSGD(k=8, scheme="wavefront", workers=6, col_blocks=6,
                      seed=0, n_threads=3)
        est.fit(tiny_problem.train, epochs=1)
        # every (worker, column) acquire
        assert est.executor.lock_stats.attempts >= 6 * 6

    def test_matches_simulated_wavefront_quality(self, tiny_problem):
        threaded = CuMFSGD(k=8, scheme="wavefront", workers=4, lam=0.05,
                           seed=0, n_threads=4)
        ht = threaded.fit(tiny_problem.train, epochs=4, test=tiny_problem.test)
        simulated = CuMFSGD(k=8, scheme="wavefront", workers=4, lam=0.05, seed=0)
        hs = simulated.fit(tiny_problem.train, epochs=4, test=tiny_problem.test)
        assert ht.final_test_rmse == pytest.approx(hs.final_test_rmse, rel=0.05)

    def test_validation(self):
        for n_threads in (0, 5):
            with pytest.raises(ValueError, match="n_threads"):
                WavefrontScheduler(workers=4, n_threads=n_threads)
        with pytest.raises(ValueError, match="exceeds"):
            CuMFSGD(scheme="wavefront", workers=4, n_threads=5)
