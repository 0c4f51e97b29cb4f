"""Tests for repro.baselines: LIBMF, NOMAD, BIDMach, ALS."""

import numpy as np
import pytest

from repro.baselines.als import ALSSolver, als_epoch_flops, als_epoch_seconds
from repro.baselines.bidmach import BIDMachSGD, bidmach_throughput
from repro.baselines.libmf import LIBMFSolver
from repro.baselines.nomad import (
    NOMADSolver,
    nomad_epoch_seconds,
    nomad_memory_efficiency,
)
from repro.core.lr_schedule import NomadSchedule
from repro.data.synthetic import PAPER_DATASETS
from repro.gpusim.specs import MAXWELL_TITAN_X, PASCAL_P100
from repro.metrics.rmse import rmse

NETFLIX = PAPER_DATASETS["netflix"]
YAHOO = PAPER_DATASETS["yahoo"]
HUGEWIKI = PAPER_DATASETS["hugewiki"]


class TestLIBMF:
    def test_converges(self, tiny_problem):
        est = LIBMFSolver(k=8, threads=4, a=8, lam=0.05,
                          schedule=NomadSchedule(), seed=0)
        hist = est.fit(tiny_problem.train, epochs=5, test=tiny_problem.test)
        assert hist.test_rmse[-1] < hist.test_rmse[0]
        assert est.score(tiny_problem.test) == pytest.approx(hist.final_test_rmse)

    def test_epoch_processes_about_nnz(self, tiny_problem):
        est = LIBMFSolver(k=8, threads=4, a=8, seed=0)
        hist = est.fit(tiny_problem.train, epochs=2)
        for n in hist.updates:
            # each epoch stops after crossing nnz; overshoot < one block
            assert tiny_problem.train.nnz <= n
            assert n < tiny_problem.train.nnz * 1.2

    def test_table_exercised(self, tiny_problem):
        est = LIBMFSolver(k=8, threads=4, a=8, seed=0)
        est.fit(tiny_problem.train, epochs=1)
        assert est.table is not None
        assert est.table.grants > 0
        assert est.table.scan_work > 0

    def test_a_equal_s_converges_worse(self, small_problem):
        """The Fig. 14 mechanism in the numeric path."""
        finals = {}
        for a in (6, 24):
            est = LIBMFSolver(k=8, threads=6, a=a, lam=0.05,
                              schedule=NomadSchedule(), seed=0)
            hist = est.fit(small_problem.train, epochs=4, test=small_problem.test)
            finals[a] = hist.final_test_rmse
        assert finals[6] > finals[24]

    def test_more_threads_than_rows_clamped(self, tiny_problem):
        est = LIBMFSolver(k=8, threads=50, a=4, seed=0)
        hist = est.fit(tiny_problem.train, epochs=1)
        assert hist.updates[0] >= tiny_problem.train.nnz

    def test_score_before_fit(self, tiny_problem):
        with pytest.raises(RuntimeError):
            LIBMFSolver().score(tiny_problem.test)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LIBMFSolver(k=0)
        with pytest.raises(ValueError):
            LIBMFSolver(threads=0)


class TestNOMADNumeric:
    def test_converges(self, tiny_problem):
        est = NOMADSolver(k=8, nodes=4, lam=0.05, seed=0)
        hist = est.fit(tiny_problem.train, epochs=5, test=tiny_problem.test)
        assert hist.test_rmse[-1] < hist.test_rmse[0]

    def test_every_sample_once_per_epoch(self, tiny_problem):
        est = NOMADSolver(k=8, nodes=4, seed=0)
        hist = est.fit(tiny_problem.train, epochs=2)
        assert hist.updates == [tiny_problem.train.nnz] * 2

    def test_token_hops_accounted(self, tiny_problem):
        est = NOMADSolver(k=8, nodes=4, seed=0)
        est.fit(tiny_problem.train, epochs=2)
        assert est.token_hops == 2 * 4 * tiny_problem.train.n_cols

    def test_refit_counts_only_its_own_token_hops(self, tiny_problem):
        est = NOMADSolver(k=8, nodes=4, seed=0)
        est.fit(tiny_problem.train, epochs=2)
        est.fit(tiny_problem.train, epochs=2)
        assert est.token_hops == 2 * 4 * tiny_problem.train.n_cols

    def test_single_node_degenerates_to_serial(self, tiny_problem):
        est = NOMADSolver(k=8, nodes=1, seed=0)
        hist = est.fit(tiny_problem.train, epochs=3, test=tiny_problem.test)
        assert hist.test_rmse[-1] < hist.test_rmse[0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            NOMADSolver(nodes=0)


class TestNOMADPerf:
    def test_netflix_32_node_scaling_far_from_linear(self):
        """Paper: 'only achieves ~5.6X speedup when scaling from 1 node to
        32, which is far from perfect scaling'. The model lands in the same
        strongly sub-linear regime."""
        speedup = nomad_epoch_seconds(NETFLIX, 1) / nomad_epoch_seconds(NETFLIX, 32)
        assert 4.0 <= speedup <= 20.0
        assert speedup < 0.6 * 32  # far from perfect scaling

    def test_yahoo_network_bound(self):
        """Yahoo's n=625k tokens swamp the network: 32 nodes slower/epoch
        than a full modern CPU node running LIBMF."""
        t32 = nomad_epoch_seconds(YAHOO, 32)
        t1 = nomad_epoch_seconds(YAHOO, 1)
        assert t32 > t1 / 2  # nowhere near linear scaling

    def test_memory_efficiency_collapses(self):
        effs = [nomad_memory_efficiency(NETFLIX, n) for n in (8, 16, 32)]
        assert effs[0] > effs[1] > effs[2]
        assert effs[-1] < 0.15

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            nomad_epoch_seconds(NETFLIX, 0)
        with pytest.raises(ValueError):
            nomad_epoch_seconds(NETFLIX, 2, token_overhead_us=-1)


class TestBIDMach:
    def test_converges(self, tiny_problem):
        est = BIDMachSGD(k=8, batch=1024, lam=0.05, seed=0)
        hist = est.fit(tiny_problem.train, epochs=5, test=tiny_problem.test)
        assert hist.test_rmse[-1] < hist.test_rmse[0]

    def test_adagrad_accumulators_grow(self, tiny_problem):
        est = BIDMachSGD(k=8, batch=1024, seed=0)
        est.fit(tiny_problem.train, epochs=1)
        assert float(est._accum_p.sum()) > 0
        assert float(est._accum_q.sum()) > 0

    def test_minibatch_has_no_races(self):
        """Gradients on duplicate rows are accumulated, not lost."""
        est = BIDMachSGD(k=2, batch=4, base_rate=0.1, lam=0.0, seed=0)
        from repro.core.model import FactorModel

        est.model = FactorModel(
            np.ones((2, 2), np.float32), np.ones((3, 2), np.float32)
        )
        est._accum_p = np.zeros((2, 2), np.float32)
        est._accum_q = np.zeros((3, 2), np.float32)
        rows = np.array([0, 0], dtype=np.int32)
        cols = np.array([1, 2], dtype=np.int32)
        vals = np.array([5.0, 5.0], dtype=np.float32)
        p_before = est.model.p[0].copy()
        est._minibatch_step(est.model, rows, cols, vals)
        # both samples push p[0] up (err>0, q=1) -> mean gradient applied
        assert np.all(est.model.p[0] > p_before)

    def test_throughput_matches_table5_band(self):
        m = bidmach_throughput(MAXWELL_TITAN_X, NETFLIX) / 1e6
        p = bidmach_throughput(PASCAL_P100, NETFLIX) / 1e6
        assert 15 <= m <= 35  # paper: 25.2
        assert 20 <= p <= 45  # paper: 29.6
        assert p > m
        assert p / m < 2.0  # launch-bound: small cross-generation gain

    def test_invalid(self):
        with pytest.raises(ValueError):
            BIDMachSGD(batch=0)
        with pytest.raises(ValueError):
            bidmach_throughput(MAXWELL_TITAN_X, NETFLIX, batch=0)


class TestALS:
    def test_converges_fast_per_epoch(self, tiny_problem):
        est = ALSSolver(k=8, lam=0.05, seed=0)
        hist = est.fit(tiny_problem.train, epochs=3, test=tiny_problem.test)
        # ALS makes large per-epoch progress (exact half-steps)
        assert hist.test_rmse[0] < 0.95
        assert hist.test_rmse[-1] < hist.test_rmse[0] + 1e-9

    def test_exact_solve_on_noiseless_problem(self, rng):
        """With no noise and k >= k_true, ALS recovers the matrix."""
        from repro.data.synthetic import DatasetSpec, make_synthetic

        spec = DatasetSpec("exact", m=120, n=90, k=6, n_train=6000, n_test=600)
        prob = make_synthetic(spec, seed=1, k_true=4, noise_sigma=0.0)
        est = ALSSolver(k=6, lam=1e-4, seed=0, weighted_reg=False)
        hist = est.fit(prob.train, epochs=15, test=prob.test)
        assert hist.final_test_rmse < 0.05

    def test_objective_monotone_decreasing_train_rmse(self, tiny_problem):
        est = ALSSolver(k=8, lam=0.05, seed=0)
        est.fit(tiny_problem.train, epochs=4)
        p, q = est.model.as_float32()
        r1 = rmse(p, q, tiny_problem.train)
        est2 = ALSSolver(k=8, lam=0.05, seed=0)
        est2.fit(tiny_problem.train, epochs=1)
        p2, q2 = est2.model.as_float32()
        assert r1 <= rmse(p2, q2, tiny_problem.train) + 1e-6

    def test_refit_on_refilled_buffers_matches_fresh_solver(self, tiny_spec):
        """A refit trains on the data it is given, even when that data
        arrives in the buffers of an earlier fit's training set."""
        from repro.data.synthetic import make_synthetic

        prob = make_synthetic(tiny_spec, seed=42)
        train = prob.train
        est = ALSSolver(k=8, seed=0)
        est.fit(train, epochs=1)
        perm = np.random.default_rng(0).permutation(train.nnz)
        for buf in (train.rows, train.cols, train.vals):
            buf[:] = buf[perm]
        refit = est.fit(train, epochs=2, test=prob.test)
        fresh = ALSSolver(k=8, seed=0).fit(train, epochs=2, test=prob.test)
        assert refit == fresh

    def test_epoch_flops_formula(self):
        f = als_epoch_flops(NETFLIX)
        assert f == pytest.approx(
            2 * NETFLIX.n_train * 128**2 + (NETFLIX.m + NETFLIX.n) * 128**3 / 3
        )

    def test_als_epoch_slower_than_sgd(self):
        """§7.4: ALS epochs are compute-heavy; slower than SGD epochs."""
        from repro.gpusim.simulator import epoch_seconds

        assert als_epoch_seconds(MAXWELL_TITAN_X, NETFLIX) > epoch_seconds(
            MAXWELL_TITAN_X, NETFLIX
        )

    def test_four_gpus_faster(self):
        assert als_epoch_seconds(MAXWELL_TITAN_X, NETFLIX, 4) < als_epoch_seconds(
            MAXWELL_TITAN_X, NETFLIX, 1
        )

    def test_invalid(self):
        with pytest.raises(ValueError):
            ALSSolver(k=0)
        with pytest.raises(ValueError):
            ALSSolver(lam=-1.0)
        with pytest.raises(ValueError):
            als_epoch_seconds(MAXWELL_TITAN_X, NETFLIX, 0)
