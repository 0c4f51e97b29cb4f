"""Tests for repro.core.multi_gpu.MultiDeviceSGD."""

import numpy as np
import pytest

from repro.core.kernels import sgd_wave_update
from repro.core.model import FactorModel
from repro.core.multi_gpu import MultiDeviceSGD, TransferLedger
from repro.core.partition import GridPartition
from repro.metrics.rmse import rmse


class TestValidation:
    def test_devices_bounded_by_grid(self):
        with pytest.raises(ValueError, match="independent"):
            MultiDeviceSGD(n_devices=3, i=2, j=4)

    @pytest.mark.parametrize("kw", [dict(n_devices=0), dict(workers=0)])
    def test_positive_params(self, kw):
        base = dict(n_devices=1, i=2, j=2, workers=8)
        base.update(kw)
        with pytest.raises(ValueError):
            MultiDeviceSGD(**base)


class TestEpoch:
    def _model(self, problem, k=8):
        return FactorModel.initialize(problem.spec.m, problem.spec.n, k, seed=0)

    def test_every_block_visited_once(self, tiny_problem):
        sgd = MultiDeviceSGD(n_devices=2, i=4, j=4, workers=16, seed=0)
        model = self._model(tiny_problem)
        n = sgd.run_epoch(model, tiny_problem.train, 0.05, 0.05)
        assert n == tiny_problem.train.nnz
        assert sgd.ledger.dispatches == 16

    def test_round_blocks_are_independent(self, tiny_problem):
        """_pick_round must return pairwise-independent blocks."""
        sgd = MultiDeviceSGD(n_devices=3, i=4, j=4, workers=8, seed=1)
        part = sgd.partition_for(tiny_problem.train)
        pending = {(i, j) for i in range(4) for j in range(4)}
        for _ in range(20):
            chosen = sgd._pick_round(pending)
            assert 1 <= len(chosen) <= 3
            assert part.independent_set(chosen)

    def test_transfer_ledger_accounting(self, tiny_problem):
        sgd = MultiDeviceSGD(n_devices=2, i=2, j=2, workers=8, seed=0)
        model = self._model(tiny_problem)
        sgd.run_epoch(model, tiny_problem.train, 0.05, 0.05)
        ledger = sgd.ledger
        part = GridPartition(tiny_problem.train, 2, 2)
        expected_h2d = sum(
            v.coo_bytes() + v.feature_bytes(8, 4) for v in part.blocks()
        )
        expected_d2h = sum(v.feature_bytes(8, 4) for v in part.blocks())
        assert ledger.h2d_bytes == expected_h2d
        assert ledger.d2h_bytes == expected_d2h
        assert ledger.total_bytes == expected_h2d + expected_d2h
        assert ledger.rounds >= 2  # 4 blocks / 2 devices

    def test_half_precision_halves_feature_traffic(self, tiny_problem):
        traffic = {}
        for half in (False, True):
            sgd = MultiDeviceSGD(n_devices=1, i=2, j=2, workers=8, seed=0)
            model = FactorModel.initialize(
                tiny_problem.spec.m, tiny_problem.spec.n, 8, seed=0,
                half_precision=half,
            )
            sgd.run_epoch(model, tiny_problem.train, 0.05, 0.05)
            traffic[half] = sgd.ledger.d2h_bytes
        assert traffic[True] == traffic[False] // 2

    def test_convergence(self, tiny_problem):
        sgd = MultiDeviceSGD(n_devices=2, i=4, j=4, workers=16, seed=0)
        model = self._model(tiny_problem)
        p, q = model.as_float32()
        before = rmse(p, q, tiny_problem.test)
        for _ in range(4):
            sgd.run_epoch(model, tiny_problem.train, 0.08, 0.05)
        p, q = model.as_float32()
        assert rmse(p, q, tiny_problem.test) < before

    def test_multi_device_matches_single_device_statistically(self, tiny_problem):
        """2 devices on independent blocks converge like 1 device (Fig. 16's
        'convergence is preserved' premise)."""
        finals = []
        for devices in (1, 2):
            sgd = MultiDeviceSGD(n_devices=devices, i=4, j=4, workers=16, seed=0)
            model = self._model(tiny_problem)
            for _ in range(4):
                sgd.run_epoch(model, tiny_problem.train, 0.08, 0.05)
            p, q = model.as_float32()
            finals.append(rmse(p, q, tiny_problem.test))
        assert finals[0] == pytest.approx(finals[1], rel=0.05)


class _WaveLoopReference(MultiDeviceSGD):
    """Each block's pass as a loop of ``sgd_wave_update`` calls over
    ``workers``-sample slices of the block's permutation."""

    def _device_pass(self, model, rows, cols, vals, lr, lam_p, lam_q):
        n = len(rows)
        if not n:
            return 0
        order = self._rng.permutation(n)
        for lo in range(0, n, self.workers):
            wave = order[lo : lo + self.workers]
            sgd_wave_update(
                model.p, model.q, rows[wave], cols[wave], vals[wave],
                lr, lam_p, lam_q, workspace=self.workspace,
            )
        return n


@pytest.mark.parametrize("half", [False, True], ids=["fp32", "fp16"])
def test_device_pass_matches_the_wave_loop(tiny_problem, half):
    """A block's waves, replayed as ``EpochPlan(order, workers, 1)``, are
    bit for bit the loop over ``order[lo:lo + workers]``; ``workers=24``
    leaves a partial last wave in most blocks."""
    train = tiny_problem.train
    models = []
    for cls in (MultiDeviceSGD, _WaveLoopReference):
        sgd = cls(n_devices=2, i=4, j=4, workers=24, seed=5)
        model = FactorModel.initialize(train.n_rows, train.n_cols, 8, seed=5,
                                       half_precision=half)
        for lr in (0.05, 0.04):
            sgd.run_epoch(model, train, lr, 0.05)
        models.append(model)
    replayed, looped = models
    assert replayed.p.dtype == (np.float16 if half else np.float32)
    assert replayed.p.tobytes() == looped.p.tobytes()
    assert replayed.q.tobytes() == looped.q.tobytes()


class TestLedger:
    def test_empty_ledger(self):
        ledger = TransferLedger()
        assert ledger.total_bytes == 0
        assert ledger.dispatches == 0
