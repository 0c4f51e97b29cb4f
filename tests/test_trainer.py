"""Tests for repro.core.trainer.CuMFSGD and TrainHistory."""

import numpy as np
import pytest

from repro.core.convergence import ParallelismCheck
from repro.core.lr_schedule import (
    AdaGradSchedule,
    ConstantSchedule,
    NomadSchedule,
)
from repro.core.trainer import CuMFSGD, TrainHistory


class TestTrainHistory:
    def test_record_and_accessors(self):
        h = TrainHistory()
        h.record(1, 0.1, 100, 0.9, 0.8)
        h.record(2, 0.05, 100, 0.7, 0.6)
        assert h.final_test_rmse == 0.6
        assert h.best_test_rmse == 0.6
        assert h.total_updates == 200
        assert h.learning_rates == [0.1, 0.05]

    def test_epochs_to_target(self):
        h = TrainHistory()
        for e, r in enumerate([0.9, 0.7, 0.5], start=1):
            h.record(e, 0.1, 10, None, r)
        assert h.epochs_to_target(0.7) == 2
        assert h.epochs_to_target(0.95) == 1
        assert h.epochs_to_target(0.1) is None

    def test_epochs_to_target_intermittent_eval(self):
        """Regression: with eval_every > 1 the test RMSE list is shorter
        than the epoch list; zipping them positionally reported the wrong
        (too early) epoch. Epoch numbers must come from the epochs the
        evaluations actually happened in."""
        h = TrainHistory()
        rmse_by_epoch = {3: 0.9, 6: 0.65, 9: 0.5}
        for e in range(1, 10):
            h.record(e, 0.1, 10, None, rmse_by_epoch.get(e))
        assert h.test_rmse == [0.9, 0.65, 0.5]
        assert h.test_epochs == [3, 6, 9]
        assert h.epochs_to_target(0.7) == 6  # positional zip said epoch 2
        assert h.epochs_to_target(0.9) == 3
        assert h.epochs_to_target(0.4) is None

    def test_epochs_to_target_hand_built_history(self):
        """Histories with lists assigned directly (no record calls) keep
        the legacy positional pairing."""
        h = TrainHistory()
        h.epochs = [1, 2, 3]
        h.test_rmse = [0.9, 0.7, 0.5]
        assert h.epochs_to_target(0.7) == 2

    def test_empty_history_errors(self):
        h = TrainHistory()
        with pytest.raises(ValueError):
            _ = h.final_test_rmse
        with pytest.raises(ValueError):
            _ = h.best_test_rmse

    def test_diverged(self):
        h = TrainHistory()
        h.record(1, 0.1, 10, None, 1.0)
        h.record(2, 0.1, 10, None, 10.0)
        assert h.diverged
        h2 = TrainHistory()
        h2.record(1, 0.1, 10, None, 1.0)
        h2.record(2, 0.1, 10, None, float("nan"))
        assert h2.diverged
        h3 = TrainHistory()
        h3.record(1, 0.1, 10, None, 1.0)
        assert not h3.diverged


class TestCuMFSGDValidation:
    def test_bad_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            CuMFSGD(scheme="magic")

    def test_bad_k(self):
        with pytest.raises(ValueError, match="k must be positive"):
            CuMFSGD(k=0)

    def test_bad_epochs(self, tiny_problem):
        with pytest.raises(ValueError, match="epochs"):
            CuMFSGD(k=4).fit(tiny_problem.train, epochs=0)

    def test_target_requires_test(self, tiny_problem):
        with pytest.raises(ValueError, match="test set"):
            CuMFSGD(k=4).fit(tiny_problem.train, epochs=1, target_rmse=0.5)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError, match="fit"):
            CuMFSGD(k=4).predict(np.array([0]), np.array([0]))
        with pytest.raises(RuntimeError, match="fit"):
            CuMFSGD(k=4).score(None)

    def test_strict_safety_raises(self, tiny_problem):
        est = CuMFSGD(k=4, workers=10_000, strict_safety=True)
        with pytest.raises(ValueError, match="unsafe parallelism"):
            est.fit(tiny_problem.train, epochs=1)

    @pytest.mark.parametrize("kw, named", [
        ({"scheme": "wavefront"}, None),
        ({"scheme": "multi_device"}, "'multi_device'"),
        ({"schedule": AdaGradSchedule()}, "AdaGradSchedule"),
    ], ids=["wavefront", "multi_device", "adagrad"])
    def test_threads_run_batch_hogwild_only(self, tiny_problem, kw, named):
        """Threads are a worker count of batch-Hogwild! and of wavefront,
        whose threads share its column-lock array; the multi-device
        simulator or AdaGrad's serial accumulators are rejected, not
        silently dropped."""
        if named is None:
            est = CuMFSGD(k=8, workers=4, n_threads=2, **kw)
            history = est.fit(tiny_problem.train, epochs=1)
            assert est.executor.n_threads == 2
            assert history.updates == [tiny_problem.train.nnz]
            return
        with pytest.raises(ValueError, match=named):
            CuMFSGD(n_threads=2, **kw)

    def test_safety_recorded_without_strict(self, tiny_problem):
        est = CuMFSGD(k=4, workers=10_000, strict_safety=False)
        est.fit(tiny_problem.train, epochs=1)
        assert isinstance(est.safety, ParallelismCheck)
        assert not est.safety.safe


class TestFit:
    def test_default_schedule_is_eq9(self):
        assert isinstance(CuMFSGD().schedule, NomadSchedule)

    @pytest.mark.parametrize("scheme,kw", [
        ("batch_hogwild", {}),
        ("wavefront", {"workers": 4}),
        ("multi_device", {"n_devices": 2, "grid": (4, 4)}),
    ])
    def test_all_schemes_converge(self, tiny_problem, scheme, kw):
        est = CuMFSGD(k=8, scheme=scheme, workers=kw.pop("workers", 32),
                      lam=0.05, seed=1, **kw)
        hist = est.fit(tiny_problem.train, epochs=5, test=tiny_problem.test)
        assert hist.test_rmse[-1] < hist.test_rmse[0]
        assert hist.total_updates == 5 * tiny_problem.train.nnz

    def test_early_stop_on_target(self, tiny_problem):
        est = CuMFSGD(k=8, workers=32, seed=1)
        hist = est.fit(
            tiny_problem.train, epochs=50, test=tiny_problem.test, target_rmse=0.75
        )
        assert len(hist.epochs) < 50
        assert hist.final_test_rmse <= 0.75

    def test_learning_rates_follow_schedule(self, tiny_problem):
        sched = NomadSchedule(alpha=0.08, beta=0.3)
        est = CuMFSGD(k=4, workers=16, schedule=sched, seed=1)
        hist = est.fit(tiny_problem.train, epochs=3)
        assert hist.learning_rates == [sched(0), sched(1), sched(2)]

    def test_warm_start_continues(self, tiny_problem):
        est = CuMFSGD(k=8, workers=32, seed=1, schedule=ConstantSchedule(0.05))
        h1 = est.fit(tiny_problem.train, epochs=3, test=tiny_problem.test)
        h2 = est.fit(tiny_problem.train, epochs=2, test=tiny_problem.test, warm_start=True)
        assert h2.test_rmse[-1] <= h1.test_rmse[-1] + 0.01

    def test_cold_start_resets(self, tiny_problem):
        est = CuMFSGD(k=8, workers=32, seed=1)
        est.fit(tiny_problem.train, epochs=3, test=tiny_problem.test)
        h2 = est.fit(tiny_problem.train, epochs=1, test=tiny_problem.test)
        # first epoch from scratch is worse than 3 epochs in
        assert h2.test_rmse[0] > 0.5

    def test_eval_train_records_train_rmse(self, tiny_problem):
        est = CuMFSGD(k=4, workers=16, seed=1)
        hist = est.fit(tiny_problem.train, epochs=2, eval_train=True)
        assert len(hist.train_rmse) == 2
        assert not hist.test_rmse

    def test_predict_and_score(self, tiny_problem):
        est = CuMFSGD(k=8, workers=32, seed=1)
        est.fit(tiny_problem.train, epochs=5, test=tiny_problem.test)
        preds = est.predict(tiny_problem.test.rows[:10], tiny_problem.test.cols[:10])
        assert preds.shape == (10,)
        assert np.isfinite(preds).all()
        score = est.score(tiny_problem.test)
        assert score == pytest.approx(est.history.final_test_rmse, rel=1e-5)

    def test_half_precision_fit(self, tiny_problem):
        est = CuMFSGD(k=8, workers=32, seed=1, half_precision=True)
        hist = est.fit(tiny_problem.train, epochs=4, test=tiny_problem.test)
        assert est.model.half_precision
        assert hist.test_rmse[-1] < hist.test_rmse[0]

    def test_half_precision_no_accuracy_loss(self, tiny_problem):
        """§4's claim: fp16 feature storage does not hurt RMSE."""
        finals = {}
        for half in (False, True):
            est = CuMFSGD(k=8, workers=32, seed=1, half_precision=half)
            hist = est.fit(tiny_problem.train, epochs=6, test=tiny_problem.test)
            finals[half] = hist.final_test_rmse
        assert finals[True] == pytest.approx(finals[False], rel=0.02)
