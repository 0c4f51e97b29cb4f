"""Tests for repro.core.hogwild.BatchHogwild."""

import numpy as np
import pytest

from repro.core.hogwild import BatchHogwild
from repro.core.model import FactorModel
from repro.metrics.rmse import rmse
from repro.obs import TelemetryCollector
from repro.obs.registry import M


def _epoch_collision_rate(sched, problem) -> float:
    """Mean Eq. 6 wave collision fraction of one epoch, every wave
    sampled."""
    model = FactorModel.initialize(problem.spec.m, problem.spec.n, 8, seed=0)
    collector = TelemetryCollector(kernel_sample_every=1)
    sched.run_epoch(model, problem.train, 0.05, 0.05, hooks=collector)
    hist = collector.registry.get(M.KERNEL_WAVE_COLLISION_FRACTION)
    assert hist.total == sched.compiled_plan(problem.train.nnz).n_waves
    return collector.conflict_rate


class TestWaveConstruction:
    def test_waves_cover_every_sample_once(self):
        sched = BatchHogwild(workers=4, f=8, seed=0)
        waves = sched.wave_indices(100)
        flat = np.concatenate(waves)
        assert len(flat) == 100
        assert np.array_equal(np.sort(flat), np.arange(100))

    def test_wave_width_bounded_by_workers(self):
        sched = BatchHogwild(workers=4, f=8, seed=0)
        for wave in sched.wave_indices(100):
            assert 1 <= len(wave) <= 4

    def test_chunk_structure(self):
        """Wave t of a full group holds sample w*f + t of each worker chunk."""
        sched = BatchHogwild(workers=3, f=4, seed=0, shuffle_each_epoch=False)
        waves = sched.wave_indices(12)  # exactly one full group
        order = sched._order
        grid = order.reshape(3, 4)
        assert len(waves) == 4
        for t, wave in enumerate(waves):
            assert np.array_equal(np.sort(wave), np.sort(grid[:, t]))

    def test_consecutive_samples_go_to_same_worker(self):
        """Each worker's samples across waves are f consecutive storage slots
        of the shuffled order (Eq. 8 locality)."""
        sched = BatchHogwild(workers=2, f=6, seed=1, shuffle_each_epoch=False)
        waves = sched.wave_indices(12)
        order = sched._order
        worker0 = [w[0] for w in waves]
        assert set(worker0) == set(order[:6])

    def test_tail_group_handled(self):
        sched = BatchHogwild(workers=4, f=8, seed=0)
        waves = sched.wave_indices(37)  # 37 = 32 + 5 tail
        assert sum(len(w) for w in waves) == 37

    def test_epoch_shuffling_changes_order(self):
        sched = BatchHogwild(workers=2, f=4, seed=0, shuffle_each_epoch=True)
        w1 = [w.copy() for w in sched.wave_indices(64)]
        w2 = [w.copy() for w in sched.wave_indices(64)]
        assert not all(np.array_equal(a, b) for a, b in zip(w1, w2))

    def test_no_shuffle_keeps_order(self):
        sched = BatchHogwild(workers=2, f=4, seed=0, shuffle_each_epoch=False)
        w1 = [w.copy() for w in sched.wave_indices(64)]
        w2 = [w.copy() for w in sched.wave_indices(64)]
        assert all(np.array_equal(a, b) for a, b in zip(w1, w2))

    @pytest.mark.parametrize("workers,f", [(0, 8), (4, 0), (-1, 8)])
    def test_invalid_params(self, workers, f):
        with pytest.raises(ValueError):
            BatchHogwild(workers=workers, f=f)


class TestEpoch:
    def test_update_count_equals_nnz(self, tiny_problem):
        sched = BatchHogwild(workers=16, f=32, seed=0)
        model = FactorModel.initialize(
            tiny_problem.spec.m, tiny_problem.spec.n, 8, seed=0
        )
        n = sched.run_epoch(model, tiny_problem.train, 0.05, 0.05)
        assert n == tiny_problem.train.nnz

    def test_epoch_improves_rmse(self, tiny_problem):
        sched = BatchHogwild(workers=16, f=32, seed=0)
        model = FactorModel.initialize(
            tiny_problem.spec.m, tiny_problem.spec.n, 8, seed=0
        )
        p, q = model.as_float32()
        before = rmse(p, q, tiny_problem.test)
        for _ in range(3):
            sched.run_epoch(model, tiny_problem.train, 0.08, 0.05)
        p, q = model.as_float32()
        assert rmse(p, q, tiny_problem.test) < before

    def test_collision_tracking(self, tiny_problem):
        sched = BatchHogwild(workers=64, f=16, seed=0)
        rate = _epoch_collision_rate(sched, tiny_problem)
        assert 0.0 <= rate < 0.5

    def test_more_workers_more_collisions(self, tiny_problem):
        fracs = [
            _epoch_collision_rate(BatchHogwild(workers=workers, f=16, seed=0),
                                  tiny_problem)
            for workers in (8, 128)
        ]
        assert fracs[1] > fracs[0]

    def test_f_insensitive_convergence(self, tiny_problem):
        """Paper: different f values 'yield similar benefit' — RMSE after a
        few epochs should not depend much on f."""
        finals = []
        for f in (16, 256):
            sched = BatchHogwild(workers=16, f=f, seed=0)
            model = FactorModel.initialize(
                tiny_problem.spec.m, tiny_problem.spec.n, 8, seed=0
            )
            for _ in range(4):
                sched.run_epoch(model, tiny_problem.train, 0.08, 0.05)
            p, q = model.as_float32()
            finals.append(rmse(p, q, tiny_problem.test))
        assert finals[0] == pytest.approx(finals[1], rel=0.05)
