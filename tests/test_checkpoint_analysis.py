"""Tests for repro.core.checkpoint and repro.analysis."""

import numpy as np
import pytest

from repro.analysis.diagnostics import (
    compare_histories,
    detect_divergence,
    profile_collisions,
)
from repro.core.checkpoint import load_model, save_model
from repro.core.model import FactorModel
from repro.core.trainer import CuMFSGD, TrainHistory


class TestCheckpoint:
    def test_round_trip_fp32(self, tmp_path, fresh_model):
        path = save_model(tmp_path / "m.npz", fresh_model, epoch=7,
                          metadata={"dataset": "tiny", "lam": 0.05})
        ck = load_model(path)
        assert np.array_equal(ck.model.p, fresh_model.p)
        assert np.array_equal(ck.model.q, fresh_model.q)
        assert ck.epoch == 7
        assert ck.metadata == {"dataset": "tiny", "lam": 0.05}

    def test_round_trip_fp16_stays_half(self, tmp_path):
        model = FactorModel.initialize(10, 8, 4, half_precision=True)
        ck = load_model(save_model(tmp_path / "h", model))
        assert ck.model.half_precision
        assert np.array_equal(ck.model.p, model.p)

    def test_suffix_added(self, tmp_path, fresh_model):
        path = save_model(tmp_path / "noext", fresh_model)
        assert path.suffix == ".npz"
        assert load_model(tmp_path / "noext").epoch == 0

    def test_negative_epoch_rejected(self, tmp_path, fresh_model):
        with pytest.raises(ValueError):
            save_model(tmp_path / "x", fresh_model, epoch=-1)

    def test_resume_training(self, tmp_path, tiny_problem):
        est = CuMFSGD(k=8, workers=32, seed=1)
        h1 = est.fit(tiny_problem.train, epochs=3, test=tiny_problem.test)
        path = save_model(tmp_path / "ck", est.model, epoch=3)
        # new estimator resumes from the checkpoint
        est2 = CuMFSGD(k=8, workers=32, seed=1)
        est2.model = load_model(path).model
        h2 = est2.fit(tiny_problem.train, epochs=2, test=tiny_problem.test,
                      warm_start=True)
        assert h2.test_rmse[-1] <= h1.test_rmse[-1] + 0.01


class TestCollisionProfile:
    def test_matches_theory_on_uniform_data(self, small_problem):
        profile = profile_collisions(small_problem.train, workers=64, waves=100)
        assert profile.matches_theory
        assert 0 <= profile.measured_mean <= profile.measured_max <= 1

    def test_more_workers_more_collisions(self, small_problem):
        p8 = profile_collisions(small_problem.train, workers=8, waves=100)
        p256 = profile_collisions(small_problem.train, workers=256, waves=100)
        assert p256.measured_mean > p8.measured_mean

    def test_validation(self, tiny_ratings):
        with pytest.raises(ValueError):
            profile_collisions(tiny_ratings, workers=0)
        with pytest.raises(ValueError, match="at least"):
            profile_collisions(tiny_ratings, workers=10_000)


def _history(curve):
    h = TrainHistory()
    for e, r in enumerate(curve, start=1):
        h.record(e, 0.1, 10, None, r)
    return h


class TestDivergenceDetection:
    def test_converging(self):
        assert detect_divergence(_history([0.9, 0.8, 0.7, 0.65, 0.6])) == "converging"

    def test_stalled(self):
        assert detect_divergence(_history([0.9, 0.7, 0.7, 0.7, 0.7])) == "stalled"

    def test_slight_rise_is_a_stall(self):
        """A rising run whose total rise stays under the tolerance is the
        mild overfitting of a long run (netflix-syn's epochs 14-18), not
        a divergence to roll back."""
        curve = [0.5451, 0.5452, 0.5455, 0.5457, 0.5458]
        assert detect_divergence(_history(curve)) == "stalled"

    def test_diverging_rising(self):
        assert detect_divergence(_history([0.7, 0.6, 0.65, 0.7, 0.8])) == "diverging"

    def test_diverging_nan(self):
        assert detect_divergence(_history([0.7, float("nan")])) == "diverging"

    def test_short_history_is_converging(self):
        assert detect_divergence(_history([0.9])) == "converging"

    def test_validation(self):
        with pytest.raises(ValueError):
            detect_divergence(_history([0.5]), patience=0)
        with pytest.raises(ValueError):
            detect_divergence(_history([]))


class TestCompareHistories:
    def test_winner_reaches_target_first(self):
        fast = _history([0.8, 0.6, 0.5])
        slow = _history([0.9, 0.8, 0.6])
        cmp = compare_histories({"fast": fast, "slow": slow}, target=0.65)
        assert cmp.winner == "fast"
        assert cmp.epochs_to["fast"] == 2
        assert cmp.epochs_to["slow"] == 3
        assert "winner: fast" in cmp.to_text()

    def test_default_target_reachable_by_all(self):
        a = _history([0.8, 0.5])
        b = _history([0.9, 0.7])
        cmp = compare_histories({"a": a, "b": b})
        assert all(v is not None for v in cmp.epochs_to.values())

    def test_unreached_target_loses(self):
        good = _history([0.8, 0.4])
        bad = _history([0.9, 0.85])
        cmp = compare_histories({"good": good, "bad": bad}, target=0.5)
        assert cmp.winner == "good"
        assert cmp.epochs_to["bad"] is None

    def test_validation(self):
        with pytest.raises(ValueError):
            compare_histories({})
        with pytest.raises(ValueError):
            compare_histories({"empty": TrainHistory()})
