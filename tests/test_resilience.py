"""Resilience subsystem tests: fault plans, retries, rollback, degradation.

The contract under test (docs/RESILIENCE.md): faults are deterministic and
seedable; the no-fault path is byte-identical to an uninstrumented run; a
dead device degrades throughput, never correctness; retries are bounded and
typed; divergence rolls back instead of poisoning the model.
"""

import json

import numpy as np
import pytest

from repro.core.checkpoint import load_model, save_model
from repro.core.lr_schedule import ConstantSchedule, NomadSchedule
from repro.core.model import FactorModel
from repro.core.multi_gpu import MultiDeviceSGD
from repro.core.trainer import CuMFSGD
from repro.obs.context import activate
from repro.obs.hooks import RecordingHooks
from repro.obs.registry import MetricsRegistry
from repro.resilience import (
    DeviceFailure,
    DeviceLostError,
    FaultInjector,
    FaultPlan,
    ResilientTrainer,
    RetryOutcome,
    RetryPolicy,
    Straggler,
    TrainingDivergedError,
    TransferFault,
    TransferFaultError,
)

pytestmark = pytest.mark.resilience


# ---------------------------------------------------------------------------
# FaultPlan: pure data, deterministic, serializable
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_random_plan_is_deterministic(self):
        a = FaultPlan.random(seed=3, n_devices=4, kill_devices=1,
                             straggler_devices=1)
        b = FaultPlan.random(seed=3, n_devices=4, kill_devices=1,
                             straggler_devices=1)
        assert a == b
        assert a != FaultPlan.random(seed=4, n_devices=4, kill_devices=1)

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan.random(seed=9, n_devices=3, kill_devices=1,
                                straggler_devices=1)
        assert FaultPlan.from_json(plan.to_json()) == plan
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan
        # dumps are canonical: same plan -> same bytes
        assert plan.to_json() == FaultPlan.load(path).to_json()

    def test_transfer_failures_sum_matching_specs(self):
        plan = FaultPlan(transfer_faults=(
            TransferFault(device=0, dispatch=2, direction="h2d", failures=1),
            TransferFault(device=0, dispatch=2, direction="any", failures=2),
            TransferFault(device=1, dispatch=2, direction="h2d", failures=9),
        ))
        assert plan.transfer_failures(0, 2, "h2d") == 3
        assert plan.transfer_failures(0, 2, "d2h") == 2  # "any" applies
        assert plan.transfer_failures(0, 3, "h2d") == 0

    def test_at_most_one_kill_per_device(self):
        with pytest.raises(ValueError, match="device"):
            FaultPlan(device_failures=(DeviceFailure(0, 1), DeviceFailure(0, 2)))

    def test_injector_tracks_dispatch_ordinals_and_death(self):
        plan = FaultPlan(device_failures=(DeviceFailure(device=0, after_dispatches=2),))
        inj = FaultInjector(plan)
        assert inj.begin_dispatch(0) and inj.complete_dispatch(0) is None
        assert inj.begin_dispatch(0) and inj.complete_dispatch(0) is None
        assert not inj.begin_dispatch(0)  # third dispatch refused
        assert not inj.alive(0)
        assert inj.dead_devices == {0}
        assert inj.events["device_lost"] == 1
        assert inj.begin_dispatch(1)  # other devices unaffected

    def test_injector_mirrors_events_into_registry(self):
        reg = MetricsRegistry()
        inj = FaultInjector(FaultPlan(device_failures=(DeviceFailure(0, 0),)),
                            registry=reg)
        assert not inj.begin_dispatch(0)
        data = json.loads(reg.to_json())
        assert any("repro.resilience.device_lost" in json.dumps(entry)
                   for entry in (data if isinstance(data, list) else [data]))


# ---------------------------------------------------------------------------
# RetryPolicy: bounded, exponential, simulated-time backoff
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(max_attempts=5, backoff_seconds=0.01,
                             backoff_multiplier=2.0)
        assert policy.backoff(0) == pytest.approx(0.01)
        assert policy.backoff(2) == pytest.approx(0.04)
        assert policy.total_backoff(3) == pytest.approx(0.01 + 0.02 + 0.04)

    def test_charge_within_budget(self):
        outcome = RetryPolicy(max_attempts=3).charge(2)
        assert isinstance(outcome, RetryOutcome)
        assert outcome.attempts == 3 and outcome.failures == 2
        assert outcome.retried
        assert not RetryPolicy(max_attempts=3).charge(0).retried

    def test_charge_exhaustion_raises_typed_error(self):
        with pytest.raises(TransferFaultError, match="3 consecutive attempts"):
            RetryPolicy(max_attempts=3).charge(3, what="d2h transfer")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)


# ---------------------------------------------------------------------------
# MultiDeviceSGD degradation: correctness under faults, identity without
# ---------------------------------------------------------------------------
class TestMultiDeviceDegradation:
    def _run(self, problem, plan=None, n_devices=4, grid=(6, 6)):
        sgd = MultiDeviceSGD(n_devices=n_devices, i=grid[0], j=grid[1],
                             workers=8, seed=0)
        if plan is not None:
            sgd.attach_faults(plan)
        model = FactorModel.initialize(
            problem.train.n_rows, problem.train.n_cols, 4, seed=0
        )
        recorder = RecordingHooks()
        updates = sgd.run_epoch(model, problem.train, 0.05, 0.05, hooks=recorder)
        return sgd, model, updates, recorder

    def test_no_fault_path_is_byte_identical(self, tiny_problem):
        _, base_model, base_updates, _ = self._run(tiny_problem, plan=None)
        _, fault_model, fault_updates, _ = self._run(tiny_problem,
                                                     plan=FaultPlan())
        assert base_updates == fault_updates
        assert np.array_equal(base_model.p, fault_model.p)
        assert np.array_equal(base_model.q, fault_model.q)

    def test_kill_one_of_four_processes_every_block_once(self, tiny_problem):
        plan = FaultPlan(device_failures=(DeviceFailure(2, 3),))
        sgd, _, updates, recorder = self._run(tiny_problem, plan)
        blocks = [e.block for e in recorder.batches]
        assert len(blocks) == 36 and len(set(blocks)) == 36
        assert updates == tiny_problem.train.nnz
        assert sgd.injector.events["device_lost"] == 1
        assert sgd.injector.events["blocks_rebalanced"] > 0
        assert sgd.injector.events["degraded_rounds"] > 0

    def test_all_devices_dead_raises(self, tiny_problem):
        plan = FaultPlan(device_failures=tuple(
            DeviceFailure(d, 0) for d in range(4)
        ))
        with pytest.raises(DeviceLostError, match="pending"):
            self._run(tiny_problem, plan)

    def test_transfer_retries_recharge_ledger(self, tiny_problem):
        plan = FaultPlan(transfer_faults=(
            TransferFault(device=0, dispatch=1, direction="h2d", failures=1),
            TransferFault(device=1, dispatch=0, direction="d2h", failures=2),
        ))
        sgd, _, _, _ = self._run(tiny_problem, plan)
        assert sgd.injector.events["transfer_faults"] == 3
        assert sgd.injector.events["retries"] == 3
        assert sgd.ledger.retried_bytes > 0

    def test_straggler_does_not_change_results(self, tiny_problem):
        plan = FaultPlan(stragglers=(Straggler(device=0, slowdown=4.0),))
        _, base_model, _, _ = self._run(tiny_problem, plan=None)
        _, slow_model, _, _ = self._run(tiny_problem, plan=plan)
        # stragglers cost simulated time, never numerics
        assert np.array_equal(base_model.p, slow_model.p)


# ---------------------------------------------------------------------------
# ResilientTrainer: checkpoints, rollback, budget
# ---------------------------------------------------------------------------
class TestResilientTrainer:
    def test_stable_run_trains_like_plain_fit(self, tiny_problem, tmp_path):
        est = CuMFSGD(k=8, workers=32, seed=0)
        hist = ResilientTrainer(est, tmp_path).fit(
            tiny_problem.train, epochs=3, test=tiny_problem.test
        )
        assert len(hist.epochs) == 3
        assert hist.test_rmse[-1] <= hist.test_rmse[0]
        assert (tmp_path / "last_good.npz").exists()

    def test_divergence_rolls_back_and_recovers(self, tiny_problem, tmp_path):
        est = CuMFSGD(k=8, workers=32, lam=0.0,
                      schedule=ConstantSchedule(8.0), seed=0)
        trainer = ResilientTrainer(est, tmp_path, max_rollbacks=12)
        with np.errstate(over="ignore", invalid="ignore"):
            hist = trainer.fit(tiny_problem.train, epochs=3,
                               test=tiny_problem.test)
        assert trainer.rollbacks >= 1
        assert trainer.lr_scale < 1.0
        assert np.isfinite(hist.final_test_rmse)
        assert list(hist.epochs) == [1, 2, 3]
        kinds = [event.kind for event in trainer.log]
        assert "divergence" in kinds and "rollback" in kinds

    def test_rollback_truncates_test_rows_by_epoch(self, tiny_problem,
                                                   tmp_path):
        """A rollback past a checkpoint also drops the discarded epochs'
        test RMSE rows, so epochs_to_target pairs them by epoch number."""
        nomad = NomadSchedule()
        est = CuMFSGD(k=8, workers=16, seed=0,
                      schedule=lambda epoch: 8.0 if epoch == 4 else nomad(epoch))
        trainer = ResilientTrainer(est, tmp_path, checkpoint_every=3,
                                   max_rollbacks=10)
        hist = trainer.fit(tiny_problem.train, epochs=6, test=tiny_problem.test)
        assert trainer.rollbacks >= 1
        assert hist.epochs == [1, 2, 3, 4, 5, 6]
        assert hist.test_epochs == hist.epochs
        assert len(hist.test_rmse) == 6

    def test_rollback_budget_exhaustion_raises(self, tiny_problem, tmp_path):
        est = CuMFSGD(k=8, workers=32, lam=0.0,
                      schedule=ConstantSchedule(50.0), seed=0)
        trainer = ResilientTrainer(est, tmp_path, max_rollbacks=1)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDivergedError, match="budget 1"):
            trainer.fit(tiny_problem.train, epochs=3, test=tiny_problem.test)

    def test_counters_reach_ambient_registry(self, tiny_problem, tmp_path):
        from repro.obs import TelemetryCollector

        est = CuMFSGD(k=8, workers=32, lam=0.0,
                      schedule=ConstantSchedule(8.0), seed=0)
        collector = TelemetryCollector()
        with activate(collector), \
                np.errstate(over="ignore", invalid="ignore"):
            ResilientTrainer(est, tmp_path, max_rollbacks=12).fit(
                tiny_problem.train, epochs=2, test=tiny_problem.test
            )
        dump = collector.registry.to_json()
        assert "repro.resilience.rollbacks" in dump
        assert "repro.resilience.checkpoints_saved" in dump

    def test_fault_plan_rides_the_recovering_loop(self, tiny_problem, tmp_path):
        est = CuMFSGD(k=8, workers=8, scheme="multi_device",
                      n_devices=4, grid=(6, 6), seed=0)
        plan = FaultPlan(device_failures=(DeviceFailure(3, 1),))
        trainer = ResilientTrainer(est, tmp_path, fault_plan=plan)
        hist = trainer.fit(tiny_problem.train, epochs=2, test=tiny_problem.test)
        assert np.isfinite(hist.final_test_rmse)
        assert trainer.events["device_lost"] == 1

    @pytest.mark.parametrize("kw", [
        {}, {"n_threads": 2}, {"scheme": "wavefront", "n_threads": 2},
    ], ids=["serial", "threads", "wavefront-threads"])
    def test_fault_plan_off_multi_device_is_rejected(self, tmp_path, kw):
        """Only the multi-device simulator has devices to kill: another
        scheme refuses a plan with faults rather than drop it, and an
        empty plan still guards it."""
        est = CuMFSGD(k=8, workers=8, seed=0, **kw)
        with pytest.raises(ValueError, match=repr(est.scheme)):
            ResilientTrainer(est, tmp_path, fault_plan=FaultPlan.kill_one(1, 1))
        assert ResilientTrainer(est, tmp_path, fault_plan=FaultPlan()).fault_plan


# ---------------------------------------------------------------------------
# Atomic checkpointing
# ---------------------------------------------------------------------------
class TestAtomicCheckpoint:
    def test_failed_save_preserves_previous_checkpoint(
        self, tmp_path, fresh_model, monkeypatch
    ):
        path = save_model(tmp_path / "ck", fresh_model, epoch=5)
        good = path.read_bytes()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", explode)
        other = FactorModel.initialize(m=50, n=40, k=8, seed=2)
        with pytest.raises(OSError, match="disk full"):
            save_model(path, other, epoch=6)
        assert path.read_bytes() == good  # old checkpoint untouched
        assert not list(tmp_path.glob(".*tmp*"))  # temp file cleaned up
        assert load_model(path).epoch == 5

    def test_save_leaves_no_temp_files(self, tmp_path, fresh_model):
        save_model(tmp_path / "ck", fresh_model)
        assert [p.name for p in tmp_path.iterdir()] == ["ck.npz"]


# ---------------------------------------------------------------------------
# Simulators under faults
# ---------------------------------------------------------------------------
class TestSimulatorFaults:
    def test_streams_straggler_stretches_makespan(self):
        from repro.gpusim.streams import StagedBlock, StreamPipeline

        blocks = [StagedBlock(0.01, 0.05, 0.01)] * 4
        base = StreamPipeline().simulate(blocks)
        slow = StreamPipeline().simulate(
            blocks, device=0,
            faults=FaultPlan(stragglers=(Straggler(0, 2.0),)),
        )
        assert slow.makespan > base.makespan
        assert len(slow.timeline) == len(base.timeline)

    def test_staging_rebalances_dead_device_blocks(self):
        from repro.gpusim.streams import StagedBlock, simulate_epoch_staging

        per_device = [[StagedBlock(0.01, 0.05, 0.01)] * 4 for _ in range(3)]
        plan = FaultPlan(device_failures=(DeviceFailure(1, 1),))
        makespan, results = simulate_epoch_staging(per_device, faults=plan)
        assert sum(len(r.timeline) for r in results) == 12  # orphans adopted
        assert len(results[1].timeline) == 1  # dead device got its 1 block
        assert makespan > 0

    def test_staging_with_no_survivors_raises(self):
        from repro.gpusim.streams import StagedBlock, simulate_epoch_staging

        per_device = [[StagedBlock(0.01, 0.05, 0.01)] * 2]
        plan = FaultPlan(device_failures=(DeviceFailure(0, 1),))
        with pytest.raises(DeviceLostError):
            simulate_epoch_staging(per_device, faults=plan)

    def test_event_sim_survivors_absorb_killed_workers_budget(self):
        from repro.gpusim.event_sim import simulate_scheduler

        plan = FaultPlan(device_failures=(DeviceFailure(1, 2),))
        result = simulate_scheduler(
            "lockfree", workers=4, updates_per_block=100,
            update_seconds=1e-6, epoch_updates=4_000, faults=plan,
        )
        assert result.total_updates == 4_000
        assert result.per_worker_updates[1] == 200  # 2 grants, then dead

    def test_event_sim_all_workers_dead_raises(self):
        from repro.gpusim.event_sim import simulate_scheduler

        plan = FaultPlan(device_failures=(DeviceFailure(0, 1),
                                          DeviceFailure(1, 1)))
        with pytest.raises(DeviceLostError, match="outstanding"):
            simulate_scheduler(
                "lockfree", workers=2, updates_per_block=10,
                update_seconds=1e-6, epoch_updates=1_000, faults=plan,
            )

    def test_multinode_degradation_is_monotone(self):
        from repro.data.synthetic import PAPER_DATASETS
        from repro.gpusim.multinode import NodeSpec, degraded_epoch_curve
        from repro.gpusim.specs import MAXWELL_TITAN_X

        node = NodeSpec(gpu=MAXWELL_TITAN_X, gpus_per_node=2)
        curve = degraded_epoch_curve(
            PAPER_DATASETS["netflix"], node, n_nodes=2,
            failure_counts=[0, 1, 2, 3],
        )
        slowdowns = [s for _, _, s in curve]
        assert slowdowns[0] == pytest.approx(1.0)
        assert all(b >= a for a, b in zip(slowdowns, slowdowns[1:]))
        with pytest.raises(DeviceLostError):
            degraded_epoch_curve(PAPER_DATASETS["netflix"], node, n_nodes=1,
                                 failure_counts=[2])


# ---------------------------------------------------------------------------
# The documented demo scenario: byte-identical reproducibility
# ---------------------------------------------------------------------------
class TestFaultDemo:
    def test_fault_demo_metrics_dump_is_byte_identical(self):
        from repro.experiments.resilience import run_fault_demo

        first, summary = run_fault_demo(seed=0)
        second, _ = run_fault_demo(seed=0)
        assert first.to_json() == second.to_json()
        assert summary["blocks_processed"] == summary["grid_blocks"]
        assert summary["dead_devices"] == [2]

    def test_fault_demo_seed_changes_the_dump(self):
        from repro.experiments.resilience import run_fault_demo

        assert run_fault_demo(seed=0)[0].to_json() != \
            run_fault_demo(seed=1)[0].to_json()
