"""Tests for the telemetry subsystem: registry, tracer, hooks, collector,
contention counters, and the trace/metrics-dump CLI subcommands."""

import json
import math

import numpy as np
import pytest

from repro.baselines import ALSSolver, BIDMachSGD, LIBMFSolver, NOMADSolver
from repro.core.lr_schedule import AdaGradSchedule
from repro.core.trainer import CuMFSGD
from repro.metrics.throughput import ThroughputRecord
from repro.obs import (
    NULL_HOOKS,
    EpochEvent,
    MetricsRegistry,
    RecordingHooks,
    TelemetryCollector,
    TraceValidationError,
    Tracer,
    activate,
    active_hooks,
    resolve_hooks,
    validate_chrome_trace,
)
from repro.obs.tracer import SIM_PID, WALL_PID
from repro.resilience.trainer import ResilientTrainer
from repro.sched.column_lock import ColumnLockArray, LockContentionStats

pytestmark = pytest.mark.obs


class TestRegistry:
    def test_counter_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("repro.test.events")
        c.inc()
        c.inc(4)
        assert reg.value("repro.test.events") == 5

    def test_counter_rejects_decrease(self):
        c = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = MetricsRegistry().gauge("g")
        assert math.isnan(g.value)
        g.set(3.5)
        g.set(2.0)
        assert g.value == 2.0 and g.updates == 2

    def test_labels_canonical_order(self):
        reg = MetricsRegistry()
        a = reg.counter("n", {"b": 2, "a": 1})
        b = reg.counter("n", {"a": 1, "b": 2})
        assert a is b
        assert a.labels == (("a", "1"), ("b", "2"))

    def test_label_family(self):
        reg = MetricsRegistry()
        reg.gauge("ups", {"dev": "0"}).set(1.0)
        reg.gauge("ups", {"dev": "1"}).set(2.0)
        assert [g.value for g in reg.family("ups")] == [1.0, 2.0]
        assert "ups" in reg and len(reg) == 2

    def test_kind_conflict(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.gauge("x", {"l": "1"})  # same name, different labels: still a kind clash

    def test_series(self):
        s = MetricsRegistry().series("rmse")
        s.append(1, 1.2)
        s.append(2, 0.9)
        assert s.xs == [1.0, 2.0] and s.values == [1.2, 0.9] and len(s) == 2

    def test_json_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c", {"scheme": "wavefront"}).inc(7)
        reg.gauge("g").set(0.25)
        h = reg.histogram("h", (0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        s = reg.series("s", {"split": "test"})
        s.append(1, 1.1)
        restored = MetricsRegistry.from_json(reg.to_json())
        assert restored.to_dict() == reg.to_dict()
        assert restored.value("c", {"scheme": "wavefront"}) == 7
        rh = restored.get("h")
        assert rh.counts == [1, 1, 1, 1] and rh.total == 4
        assert rh.min == 0.05 and rh.max == 50.0

    def test_jsonl_lines_parse(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(1)
        path = tmp_path / "m.jsonl"
        reg.write_jsonl(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        names = [json.loads(line)["name"] for line in lines]
        assert names == sorted(names)

    def test_write_json_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        path = reg.write_json(tmp_path / "m.json")
        assert MetricsRegistry.from_json(path.read_text()).value("a") == 3


class TestHistogram:
    def test_bucket_edges_le_convention(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", (1.0, 2.0, 4.0))
        # a value exactly on an edge belongs to that edge's bucket (le)
        for v in (0.5, 1.0, 1.5, 2.0, 4.0, 4.0001):
            h.observe(v)
        assert h.counts == [2, 2, 1, 1]  # [<=1, <=2, <=4, +inf]
        assert h.bucket_edges() == (1.0, 2.0, 4.0, math.inf)
        assert h.total == 6
        assert h.mean == pytest.approx(sum((0.5, 1.0, 1.5, 2.0, 4.0, 4.0001)) / 6)

    def test_edges_must_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", (1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("bad2", (2.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("bad3", ())

    def test_reregister_same_buckets_ok_mismatch_raises(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", (1.0, 2.0))
        assert reg.histogram("h", (1.0, 2.0)) is h
        with pytest.raises(ValueError):
            reg.histogram("h", (1.0, 3.0))


class TestTracer:
    def test_chrome_trace_schema(self):
        tr = Tracer()
        tr.name_thread(SIM_PID, 0, "stream:compute")
        tr.add_span("block 0", 0.0, 1e-3, tid=0, args={"n": 3})
        tr.instant("epoch boundary")
        tr.counter("updates", {"updates": 42.0})
        with tr.span("wall work") as args:
            args["note"] = "x"
        doc = tr.to_chrome()
        assert validate_chrome_trace(doc) == 5
        assert doc["displayTimeUnit"] == "ms"

    def test_span_units_microseconds(self):
        tr = Tracer()
        tr.add_span("s", start_seconds=2.0, duration_seconds=0.5)
        ev = tr.events[0]
        assert ev["ph"] == "X" and ev["ts"] == 2.0e6 and ev["dur"] == 0.5e6
        assert ev["pid"] == SIM_PID

    def test_thread_name_dedup(self):
        tr = Tracer()
        tr.name_thread(1, 0, "a")
        tr.name_thread(1, 0, "a")
        assert len(tr.events) == 1

    def test_write_and_revalidate(self, tmp_path):
        tr = Tracer()
        tr.add_span("s", 0.0, 1.0, pid=WALL_PID)
        path = tr.write(tmp_path / "trace.json")
        assert validate_chrome_trace(json.loads(path.read_text())) == 1


class TestTraceSchema:
    def _base(self, **kw):
        ev = {"name": "e", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 0}
        ev.update(kw)
        return ev

    def test_accepts_bare_array(self):
        assert validate_chrome_trace([self._base()]) == 1

    def test_rejects_missing_dur(self):
        ev = self._base()
        del ev["dur"]
        with pytest.raises(TraceValidationError, match="dur"):
            validate_chrome_trace([ev])

    def test_rejects_unknown_phase(self):
        with pytest.raises(TraceValidationError, match="phase"):
            validate_chrome_trace([self._base(ph="Z")])

    def test_rejects_negative_ts(self):
        with pytest.raises(TraceValidationError, match="non-negative"):
            validate_chrome_trace([self._base(ts=-1)])

    def test_rejects_counter_without_args(self):
        ev = {"name": "c", "ph": "C", "ts": 0, "pid": 1, "tid": 0}
        with pytest.raises(TraceValidationError, match="args"):
            validate_chrome_trace([ev])

    def test_rejects_bad_metadata(self):
        ev = {"name": "bogus_meta", "ph": "M", "ts": 0, "pid": 1, "tid": 0}
        with pytest.raises(TraceValidationError, match="metadata"):
            validate_chrome_trace([ev])

    def test_rejects_bad_display_unit(self):
        with pytest.raises(TraceValidationError, match="displayTimeUnit"):
            validate_chrome_trace({"traceEvents": [], "displayTimeUnit": "s"})

    def test_error_pinpoints_index(self):
        with pytest.raises(TraceValidationError) as exc:
            validate_chrome_trace([self._base(), self._base(ph="Z")])
        assert exc.value.index == 1
        assert "traceEvents[1]" in str(exc.value)


class TestHooksProtocol:
    def test_null_hooks_inactive_noop(self):
        assert NULL_HOOKS.active is False
        NULL_HOOKS.on_epoch(None)  # all callbacks swallow anything
        NULL_HOOKS.on_batch(None)
        NULL_HOOKS.on_kernel(None)
        NULL_HOOKS.on_transfer(None)

    def test_resolve_defaults_to_null(self):
        assert resolve_hooks(None) is NULL_HOOKS
        assert active_hooks() is NULL_HOOKS

    def test_activate_scopes_ambient_collector(self):
        collector = TelemetryCollector()
        with activate(collector):
            assert resolve_hooks(None) is collector
        assert resolve_hooks(None) is NULL_HOOKS

    def test_epoch_event_rate(self):
        ev = EpochEvent(epoch=1, lr=0.1, n_updates=100, train_rmse=None,
                        test_rmse=1.0, seconds=2.0)
        assert ev.updates_per_sec == 50.0
        assert EpochEvent(epoch=1, lr=0.1, n_updates=5).updates_per_sec == 0.0


class TestNullCollectorIdentity:
    def test_history_identical_with_and_without_hooks(self, tiny_problem):
        def train(hooks):
            est = CuMFSGD(k=8, scheme="batch_hogwild", workers=16, seed=3,
                          hooks=hooks)
            return est.fit(tiny_problem.train, epochs=3, test=tiny_problem.test)

        bare = train(None)
        recording = RecordingHooks()
        instrumented = train(recording)
        # numerics are bit-identical; wall times are compare=False
        assert bare == instrumented
        assert bare.test_rmse == instrumented.test_rmse
        assert len(recording.epochs) == 3
        assert recording.epochs[0].nnz == tiny_problem.train.nnz

    def test_collector_populates_registry(self, tiny_problem):
        collector = TelemetryCollector()
        est = CuMFSGD(k=8, scheme="wavefront", workers=4, seed=3,
                      hooks=collector)
        est.fit(tiny_problem.train, epochs=2, test=tiny_problem.test)
        reg = collector.registry
        assert reg.get("repro.train.epoch_seconds").total == 2
        assert reg.value("repro.train.updates") == 2 * tiny_problem.train.nnz
        assert reg.value("repro.train.updates_per_sec") > 0
        assert reg.value("repro.sched.lock.attempts") > 0
        assert len(reg.series("repro.train.rmse", {"split": "test"})) == 2
        assert validate_chrome_trace(collector.tracer.to_chrome()) > 0

    def test_summary_headline_keys(self, tiny_problem):
        collector = TelemetryCollector()
        est = CuMFSGD(k=8, workers=32, seed=3, hooks=collector)
        est.fit(tiny_problem.train, epochs=2, test=tiny_problem.test)
        summary = collector.summary()
        assert summary["updates_per_sec"] > 0
        assert summary["effective_bandwidth_gbs"] > 0
        assert 0.0 <= summary["conflict_rate"] < 1.0


#: every solver whose fit runs the one epoch loop: the baselines, which
#: hand themselves to run_epochs, and the wavefront estimator on threads
EPOCH_SOLVERS = {
    "libmf": lambda: LIBMFSolver(k=8, threads=4, a=8, seed=0),
    "nomad": lambda: NOMADSolver(k=8, nodes=4, seed=0),
    "bidmach": lambda: BIDMachSGD(k=8, batch=1024, seed=0),
    "als": lambda: ALSSolver(k=8, seed=0),
    "threaded-wavefront": lambda: CuMFSGD(k=8, scheme="wavefront", workers=4,
                                          n_threads=2, seed=0),
}


@pytest.mark.parametrize("solver", EPOCH_SOLVERS)
def test_every_solver_epoch_reaches_the_collector(tiny_problem, solver):
    """Each solver's fit runs the one epoch loop: its epochs are timed,
    counted by an ambient collector, and traced under its scheme label."""
    collector = TelemetryCollector()
    est = EPOCH_SOLVERS[solver]()
    with activate(collector):
        hist = est.fit(tiny_problem.train, epochs=2, test=tiny_problem.test)
    assert all(seconds > 0 for seconds in hist.epoch_seconds)
    assert collector.registry.value("repro.train.updates") == sum(hist.updates)
    spans = [ev for ev in collector.tracer.events if ev.get("cat") == "train"]
    assert [span["name"] for span in spans] == ["epoch 1", "epoch 2"]
    assert [span["args"]["scheme"] for span in spans] == [est.scheme] * 2


#: each executor's configuration and its per-epoch ``extra`` over two
#: epochs on the seeded tiny problem, as the estimator reported them
#: before each executor owned its diagnostics (but ``plan_repermutes``,
#: which counts every epoch's draw, the first included)
EPOCH_EXTRAS = {
    "serial": (dict(workers=32, f=16), [
        {"plan_compiles": 1, "plan_repermutes": 1,
         "workspace_allocations": 2, "workspace_plan_binds": 1,
         "workspace_waves": 480, "workspace_bytes": 435328},
        {"plan_compiles": 1, "plan_repermutes": 2,
         "workspace_allocations": 2, "workspace_plan_binds": 2,
         "workspace_waves": 960, "workspace_bytes": 435328},
    ]),
    "adagrad": (dict(workers=32, f=16), [
        {"plan_compiles": 1, "plan_repermutes": 1,
         "workspace_allocations": 1, "workspace_plan_binds": 1,
         "workspace_waves": 0, "workspace_bytes": 430080},
        {"plan_compiles": 1, "plan_repermutes": 2,
         "workspace_allocations": 1, "workspace_plan_binds": 2,
         "workspace_waves": 0, "workspace_bytes": 430080},
    ]),
    "threads": (dict(workers=32, f=16, n_threads=2), [
        {"n_threads": 2, "thread_updates": [7576, 7424]},
        {"n_threads": 2, "thread_updates": [7576, 7424]},
    ]),
    "wavefront": (dict(scheme="wavefront", workers=8), [
        {"lock_wait_events": 33, "lock_attempts": 161, "sched_rounds": 23},
        {"lock_wait_events": 34, "lock_attempts": 162, "sched_rounds": 23},
    ]),
    "multi_device": (dict(scheme="multi_device", workers=8, n_devices=2,
                          grid=(4, 4)), [
        {"transfer_rounds": 9, "transfer_bytes": 308000},
        {"transfer_rounds": 17, "transfer_bytes": 616000},
    ]),
}


def _estimator(executor: str) -> CuMFSGD:
    kw = dict(EPOCH_EXTRAS[executor][0])
    if executor == "adagrad":  # a fresh schedule: it holds per-fit state
        kw["schedule"] = AdaGradSchedule(0.1)
    return CuMFSGD(k=8, lam=0.05, seed=3, **kw)


class TestEpochExtras:
    @pytest.mark.parametrize("executor", EPOCH_EXTRAS)
    def test_each_executor_reports_its_own_extras(self, tiny_problem,
                                                  executor):
        hooks = RecordingHooks()
        _estimator(executor).fit(tiny_problem.train, epochs=2, hooks=hooks)
        assert [e.extra for e in hooks.epochs] == EPOCH_EXTRAS[executor][1]

    def test_wavefront_epoch_locks_sum_to_its_totals(self, tiny_problem):
        hooks = RecordingHooks()
        est = _estimator("wavefront")
        est.fit(tiny_problem.train, epochs=3, hooks=hooks)
        extras = [e.extra for e in hooks.epochs]
        sched = est.executor
        assert sum(x["lock_wait_events"] for x in extras) == (
            sched.lock_stats.waits)
        assert sum(x["lock_attempts"] for x in extras) == (
            sched.lock_stats.attempts)

    @pytest.mark.parametrize("executor", ["serial", "threads", "wavefront",
                                          "multi_device"])
    def test_resilient_fit_carries_the_same_extras(self, tiny_problem,
                                                   tmp_path, executor):
        """The recovering fit runs the same loop, so an epoch it keeps
        carries the executor's diagnostics like a plain fit's."""
        train, test = tiny_problem.train, tiny_problem.test
        plain, guarded = RecordingHooks(), RecordingHooks()
        _estimator(executor).fit(train, epochs=2, test=test, hooks=plain)
        trainer = ResilientTrainer(_estimator(executor), tmp_path)
        trainer.fit(train, epochs=2, test=test, hooks=guarded)
        assert trainer.rollbacks == 0
        assert all(e.extra for e in guarded.epochs)
        assert [e.extra for e in guarded.epochs] == (
            [e.extra for e in plain.epochs])


class TestThroughputFromHistory:
    def test_from_history_eq7(self):
        from repro.core.trainer import TrainHistory

        history = TrainHistory()
        for epoch in (1, 2):
            history.on_epoch(EpochEvent(epoch=epoch, lr=0.1, n_updates=1000,
                                        seconds=0.5))
        record = ThroughputRecord.from_history(history, nnz=1000, k=16,
                                               solver="t", workers=8)
        assert record.updates_per_sec == pytest.approx(2 * 1000 / 1.0)
        assert record.workers == 8

    def test_from_history_requires_elapsed(self):
        from repro.core.trainer import TrainHistory

        history = TrainHistory()
        history.record(1, 0.1, 1000, None, None)  # legacy path: no wall time
        with pytest.raises(ValueError):
            ThroughputRecord.from_history(history, nnz=1000)
        record = ThroughputRecord.from_history(history, nnz=1000,
                                               elapsed_seconds=2.0)
        assert record.updates_per_sec == 500.0


class TestLockContention:
    def test_counters(self):
        locks = ColumnLockArray(4)
        assert locks.try_acquire(0, worker=1)
        assert not locks.try_acquire(0, worker=2)  # held -> wait
        locks.abort(0, worker=2)
        locks.release(0, worker=1)
        stats = locks.stats()
        assert stats == LockContentionStats(attempts=2, waits=1, aborts=1,
                                            releases=1)
        assert stats.wait_fraction == 0.5
        assert locks.waits == locks.contended == 1

    def test_abort_error_cases(self):
        locks = ColumnLockArray(2)
        assert locks.try_acquire(1, worker=0)
        with pytest.raises(RuntimeError):
            locks.abort(1, worker=0)  # own column
        with pytest.raises(RuntimeError):
            locks.abort(0, worker=0)  # free column
        assert locks.stats().aborts == 0

    def test_stats_add(self):
        a = LockContentionStats(attempts=3, waits=1)
        b = LockContentionStats(attempts=2, waits=2, aborts=1, releases=4)
        assert a + b == LockContentionStats(5, 3, 1, 4)
        assert LockContentionStats().wait_fraction == 0.0


class TestObsCLI:
    def test_resolve_experiment_id(self):
        from repro.experiments.cli import resolve_experiment_id

        assert resolve_experiment_id("fig7") == "fig7"
        assert resolve_experiment_id("fig07") == "fig7"
        assert resolve_experiment_id("fig05") == "fig5b"  # unique prefix
        assert resolve_experiment_id("figure10") == "fig10"
        with pytest.raises(KeyError):
            resolve_experiment_id("fig99")

    def test_trace_subcommand(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out = tmp_path / "trace.json"
        assert main(["trace", "fig10", "--no-probe", "--out", str(out)]) == 0
        assert "trace events" in capsys.readouterr().out
        validate_chrome_trace(json.loads(out.read_text()))

    def test_metrics_dump_subcommand(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out = tmp_path / "metrics.json"
        assert main(["metrics-dump", "fig10", "--no-probe",
                     "--out", str(out)]) == 0
        restored = MetricsRegistry.from_json(out.read_text())
        assert "repro.perf.updates_per_sec" in restored

    def test_unknown_experiment_exit_code(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert main(["metrics-dump", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err


class TestStrideUpdateAccounting:
    """Regression: the updates counter is exact for *any* kernel stride.

    The stride-window producers used to stamp each flushed event with only
    the last wave's length (and the tail flush with 0), so the
    ``repro.kernel.updates`` counter undercounted by up to ``(stride-1)/
    stride`` whenever ``kernel_sample_every > 1``. Events must carry the
    accumulated update total of every wave in their window: per epoch the
    counter sums to exactly ``nnz`` regardless of stride.
    """

    @pytest.mark.parametrize("stride", [1, 7, 64])
    @pytest.mark.parametrize("scheme", ["hogwild", "adagrad"])
    def test_updates_counter_equals_nnz_per_epoch(
        self, tiny_problem, stride, scheme
    ):
        from repro.core.adagrad import AdaGradHogwild
        from repro.core.hogwild import BatchHogwild
        from repro.core.model import FactorModel

        train = tiny_problem.train
        spec = tiny_problem.spec
        cls = BatchHogwild if scheme == "hogwild" else AdaGradHogwild
        sched = cls(workers=16, f=8, seed=3)
        model = FactorModel.initialize(spec.m, spec.n, spec.k, seed=0)
        collector = TelemetryCollector(kernel_sample_every=stride)
        n_waves = sched.compiled_plan(train.nnz).n_waves
        for epoch in range(1, 3):
            sched.run_epoch(model, train, 0.05, 0.05, hooks=collector)
            updates = collector.registry.get("repro.kernel.updates").value
            waves = collector.registry.get("repro.kernel.waves").value
            assert updates == epoch * train.nnz
            assert waves == epoch * n_waves
