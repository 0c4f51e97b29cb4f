"""Cross-worker profiling: thread lanes, stall attribution, perf ledger.

Covers the observability additions around the parallel executors:

* `repro.obs.profiler` — the StallReport phase taxonomy (fractions sum to
  1 by construction), serialization round-trip, `repro.profile.*`
  publication;
* `repro.obs.ledger` — provenance stamps, config-matched baselines, and
  the >15% `perf-diff` regression gate (plus its CLI exit codes);
* the executor wiring — a threaded `CuMFSGD` fit under a collector, in
  core or out of core, yields one schema-valid trace with a lane per
  thread and an embeddable stall report that the written trace
  reproduces.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import (
    TelemetryCollector,
    activate,
    validate_chrome_trace,
)
from repro.obs.ledger import (
    PerfLedger,
    bench_meta,
    git_sha,
    perf_diff,
)
from repro.obs.profiler import PHASES, StallReport, WorkerPhases
from repro.obs.registry import METRIC_MANIFEST, M, MetricsRegistry
from repro.obs.tracer import THREAD_TID_BASE, WALL_PID, Tracer

pytestmark = pytest.mark.obs


class TestTracerLaneNaming:
    def test_origin_is_raw_clock_value(self):
        import time

        before = time.perf_counter()
        tracer = Tracer()
        after = time.perf_counter()
        assert before <= tracer.origin <= after


# ---------------------------------------------------------------------------
# profiler: taxonomy, report invariants, publication
# ---------------------------------------------------------------------------
class TestStallReport:
    def _report(self):
        return StallReport(
            "threads",
            [
                WorkerPhases(0, 2.0, {"compute": 1.2, "spawn": 0.6}),
                WorkerPhases(1, 2.0, {"compute": 1.6, "spawn": 0.1,
                                      "prefetch": 0.2}),
            ],
        )

    def test_fractions_sum_to_one_with_replay_residual(self):
        report = self._report()
        for w in report.workers:
            att = w.attributed()
            assert att["replay"] == pytest.approx(
                w.wall_seconds - sum(
                    v for p, v in att.items() if p != "replay"
                )
            )
            assert math.fsum(w.fractions().values()) == pytest.approx(1.0)
        assert math.fsum(report.aggregate_fractions().values()) == (
            pytest.approx(1.0)
        )

    def test_overcommitted_worker_stretches_denominator(self):
        """Measured > wall (overlapping instrumentation): fractions still
        sum to 1, replay clamps at 0."""
        w = WorkerPhases(0, 1.0, {"compute": 0.9, "spawn": 0.4})
        att = w.attributed()
        assert att["replay"] == 0.0
        assert math.fsum(w.fractions().values()) == pytest.approx(1.0)

    def test_round_trip_and_validate(self):
        state = self._report().as_dict()
        StallReport.validate_dict(state)
        again = StallReport.from_dict(state)
        assert again.as_dict() == state
        bad = json.loads(json.dumps(state))
        bad["workers"][0]["fractions"]["compute"] = 0.0
        with pytest.raises(ValueError, match="fractions sum"):
            StallReport.validate_dict(bad)

    def test_validate_rejects_measured_exceeding_wall(self):
        """Measured phase seconds > wall means the producer read the
        accumulators mid-write; the replay-residual clamp must not be
        allowed to mask it."""
        report = StallReport(
            "threads",
            [WorkerPhases(0, 1.0, {"compute": 1.3, "spawn": 0.2})],
        )
        # fractions still sum to 1 (stretched denominator) — only the
        # new wall-clock invariant catches the corruption
        state = report.as_dict()
        assert math.fsum(
            state["workers"][0]["fractions"].values()
        ) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="exceed wall_seconds"):
            StallReport.validate_dict(state)

    def test_from_trace_folds_compute_spans(self):
        """Per worker: spawn and prefetch sum the span args, compute is
        dur − stall and wall is spawn + dur; stage spans and the trainer
        lane are not worker time."""
        tracer = Tracer()
        lane = {"pid": WALL_PID, "cat": "compute"}
        for epoch, (spawn, dur, stall) in enumerate([(0.1, 1.0, 0.25),
                                                     (0.2, 2.0, 0.5)]):
            tracer.add_span(f"epoch {epoch} compute", epoch, dur,
                            tid=THREAD_TID_BASE + 1,
                            args={"spawn": spawn, "stall": stall}, **lane)
        tracer.add_span("epoch 1 compute", 0.0, 4.0, tid=THREAD_TID_BASE,
                        args={"spawn": 0.5}, **lane)
        tracer.add_span("stage.load b(0,0)", 0.0, 9.0, pid=WALL_PID,
                        tid=THREAD_TID_BASE, cat="stage")
        tracer.add_span("epoch 1", 0.0, 9.0, pid=WALL_PID, tid=0, cat="train")
        w0, w1 = StallReport.from_trace("threads_ooc", tracer.events).workers
        assert (w0.wid, w1.wid) == (0, 1)
        assert w0.wall_seconds == pytest.approx(4.5)
        assert w0.attributed() == pytest.approx(
            {"compute": 4.0, "spawn": 0.5, "prefetch": 0.0, "replay": 0.0})
        assert w1.wall_seconds == pytest.approx(3.3)
        assert w1.attributed() == pytest.approx(
            {"compute": 2.25, "spawn": 0.3, "prefetch": 0.75, "replay": 0.0})

    def test_publish_emits_profile_family(self):
        registry = MetricsRegistry()
        self._report().publish(registry)
        walls = registry.family(M.PROFILE_WALL_SECONDS)
        assert {dict(m.labels)["worker"] for m in walls} == {"0", "1", "all"}
        for phase in PHASES:
            assert registry.value(
                M.PROFILE_PHASE_FRACTION,
                {"executor": "threads", "worker": "all", "phase": phase},
            ) >= 0.0

    def test_profile_names_in_manifest(self):
        for name in (M.PROFILE_WALL_SECONDS, M.PROFILE_PHASE_SECONDS,
                     M.PROFILE_PHASE_FRACTION):
            assert name in METRIC_MANIFEST
            assert name.startswith("repro.profile.")


# ---------------------------------------------------------------------------
# executor wiring: multi-lane traces + stall reports from a real fit
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def ooc_profiled_run(tiny_problem, tmp_path_factory):
    from repro.core.trainer import CuMFSGD
    from repro.data.blockstore import BlockStore

    store = BlockStore.create(tiny_problem.train, 3, 3,
                              tmp_path_factory.mktemp("store"), seed=0)
    collector = TelemetryCollector(run_label="profiled-threads-ooc")
    est = CuMFSGD(k=8, n_threads=2, lam=0.05, seed=0, store=store)
    with activate(collector):
        est.fit(None, epochs=2)
    return est, collector


def _lanes(trace: dict) -> set:
    return {(e.get("pid"), e.get("tid"))
            for e in trace["traceEvents"] if e.get("ph") != "M"}


class TestThreadsProfiling:
    def test_single_trace_with_worker_lanes(self, ooc_profiled_run):
        est, collector = ooc_profiled_run
        trace = collector.tracer.to_chrome()
        validate_chrome_trace(trace)
        lanes = _lanes(trace)
        # the trainer wall lane + one thread lane per worker
        assert len(lanes) >= est.n_threads + 1
        for tid in range(est.n_threads):
            assert (WALL_PID, THREAD_TID_BASE + tid) in lanes
        # each thread's shard loads land on its own lane
        loads = {e["tid"] for e in trace["traceEvents"]
                 if e["name"].startswith("stage.load")}
        assert loads == {THREAD_TID_BASE + t for t in range(est.n_threads)}

    def test_stall_report_fractions(self, ooc_profiled_run):
        est, _ = ooc_profiled_run
        report = est.executor.stall_report
        assert report is not None and report.executor == "threads_ooc"
        assert len(report.workers) == est.n_threads
        StallReport.validate_dict(report.as_dict())
        # epochs ran compute, so it can't be all residual
        assert report.aggregate_seconds()["compute"] > 0.0

    def test_threads_report_and_lanes(self, tiny_problem):
        from repro.core.trainer import CuMFSGD

        collector = TelemetryCollector(run_label="profiled-threads")
        est = CuMFSGD(k=8, n_threads=2, lam=0.05, seed=0)
        with activate(collector):
            est.fit(tiny_problem.train, epochs=2)
        report = est.executor.stall_report
        assert report is not None
        assert report.executor == "threads"
        StallReport.validate_dict(report.as_dict())
        trace = collector.tracer.to_chrome()
        validate_chrome_trace(trace)
        lanes = _lanes(trace)
        for tid in range(est.n_threads):
            assert (WALL_PID, THREAD_TID_BASE + tid) in lanes

    @pytest.mark.parametrize("out_of_core", [False, True],
                             ids=["in_core", "out_of_core"])
    def test_written_trace_reproduces_report(self, tiny_problem, tmp_path,
                                             out_of_core):
        """The threads' spans are the run's whole timing record: the
        report recomputed from the written trace is the one the fit made."""
        from repro.core.trainer import CuMFSGD
        from repro.data.blockstore import BlockStore

        store = None
        if out_of_core:
            store = BlockStore.create(tiny_problem.train, 3, 3,
                                      tmp_path / "store", seed=0)
        collector = TelemetryCollector(run_label="trace-reproduces-report")
        est = CuMFSGD(k=8, n_threads=2, lam=0.05, seed=0, store=store)
        with activate(collector):
            est.fit(None if out_of_core else tiny_problem.train, epochs=2)
        path = collector.tracer.write(tmp_path / "trace.json")
        events = json.loads(path.read_text())["traceEvents"]
        report = est.executor.stall_report
        again = StallReport.from_trace(report.executor, events)
        assert [w.wid for w in again.workers] == [0, 1]
        assert [w.wid for w in report.workers] == [0, 1]
        for got, want in zip(again.workers, report.workers):
            assert got.wall_seconds == pytest.approx(want.wall_seconds,
                                                     rel=1e-9)
            assert got.attributed() == pytest.approx(want.attributed(),
                                                     rel=1e-9)
        if out_of_core:  # the spans' stall is every prefetcher wait
            assert report.aggregate_seconds()["prefetch"] == pytest.approx(
                est.executor.stage_stats.wait_seconds, rel=1e-9)


# ---------------------------------------------------------------------------
# ledger + perf-diff
# ---------------------------------------------------------------------------
def _doc(updates_per_sec=1e6, speedup=2.0, config=None, benchmark="hot_path"):
    return {
        "benchmark": benchmark,
        "schema_version": 2,
        "config": dict(config or {"nnz": 1000, "k": 8}),
        "metrics": {
            "updates_per_sec": updates_per_sec,
            "speedup": speedup,
            "epoch_seconds": 0.1,  # not gated
        },
    }


class TestPerfLedger:
    def test_append_stamps_meta_and_round_trips(self, tmp_path):
        ledger = PerfLedger(tmp_path / "ledger.jsonl")
        doc = _doc()
        entry = ledger.append(doc)
        assert "meta" not in doc  # source not mutated
        for key in ("git_sha", "timestamp_utc", "hostname", "cpu_count"):
            assert key in entry["meta"]
        assert ledger.entries() == [entry]

    def test_bench_meta_sha_matches_git(self):
        meta = bench_meta()
        assert meta["git_sha"] == git_sha()
        assert meta["cpu_count"] >= 1

    def test_baseline_requires_matching_config(self, tmp_path):
        ledger = PerfLedger(tmp_path / "ledger.jsonl")
        quick = _doc(config={"nnz": 10})
        reference = _doc(config={"nnz": 1000})
        ledger.append(reference)
        assert ledger.baseline(quick) is None  # quick never gates vs ref
        base = ledger.baseline(reference)
        assert base is not None and base["config"] == {"nnz": 1000}

    def test_latest_comparable_entry_wins(self, tmp_path):
        ledger = PerfLedger(tmp_path / "ledger.jsonl")
        ledger.append(_doc(updates_per_sec=1e6))
        ledger.append(_doc(updates_per_sec=2e6))
        base = ledger.baseline(_doc())
        assert base["metrics"]["updates_per_sec"] == 2e6

    def test_torn_ledger_line_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = PerfLedger(path)
        ledger.append(_doc())
        with path.open("a") as fh:
            fh.write('{"benchmark": "hot_')
        assert len(ledger.entries()) == 1

    def test_regression_gate(self, tmp_path):
        ledger = PerfLedger(tmp_path / "ledger.jsonl")
        ledger.append(_doc(updates_per_sec=1e6, speedup=2.0))
        # -20% updates/s: regression; +10% speedup: fine
        result = perf_diff(
            [_doc(updates_per_sec=0.8e6, speedup=2.2)], ledger
        )
        assert not result.ok
        assert [c.metric for c in result.regressions] == ["updates_per_sec"]
        assert result.regressions[0].delta_fraction == pytest.approx(-0.2)
        # within threshold: ok
        assert perf_diff([_doc(updates_per_sec=0.9e6)], ledger).ok

    def test_missing_baseline_warns_not_fails(self, tmp_path):
        ledger = PerfLedger(tmp_path / "empty.jsonl")
        result = perf_diff([_doc()], ledger)
        assert result.ok
        assert result.missing == ["hot_path"]
        assert "no comparable ledger entry" in result.format()

    def test_gated_metrics_families(self):
        from repro.obs.ledger import gated_metrics, is_speedup_metric

        metrics = {
            "serial_updates_per_sec": 1e6,  # gated (throughput)
            "speedup": 2.0,                 # gated (speedup)
            "threads_vs_serial": 1.5,       # gated (speedup ratio)
            "auto_vs_serial": 1.0,          # gated (speedup ratio)
            "ooc_vs_threads": 0.9,          # lower-is-better: never gated
            "oversubscribed": True,         # bool flag: never gated
            "cpu_count": 4,                 # not a gated family
        }
        gated = gated_metrics(metrics)
        assert set(gated) == {"serial_updates_per_sec", "speedup",
                              "threads_vs_serial", "auto_vs_serial"}
        assert is_speedup_metric("auto_vs_serial")
        assert is_speedup_metric("speedup")
        assert not is_speedup_metric("ooc_vs_threads")
        assert not is_speedup_metric("serial_updates_per_sec")

    def test_oversubscribed_run_skips_speedup_gates(self, tmp_path):
        """An oversubscribed run keeps its throughput gates but never
        fails on speedup ratios — they measure contention, not code."""
        def par_doc(ups, ratio, oversubscribed):
            return {
                "benchmark": "parallel",
                "schema_version": 3,
                "config": {"nnz": 1000, "k": 8},
                "metrics": {
                    "serial_updates_per_sec": ups,
                    "threads_vs_serial": ratio,
                    "oversubscribed": oversubscribed,
                },
            }

        ledger = PerfLedger(tmp_path / "ledger.jsonl")
        ledger.append(par_doc(1e6, 2.0, False))
        # ratio halves but the run is oversubscribed: skipped, still ok
        result = perf_diff([par_doc(1e6, 0.5, True)], ledger)
        assert result.ok
        assert result.skipped == ["parallel:threads_vs_serial"]
        assert "oversubscribed run" in result.format()
        # same ratio drop on a non-oversubscribed run: real regression
        result = perf_diff([par_doc(1e6, 0.5, False)], ledger)
        assert not result.ok
        assert [c.metric for c in result.regressions] == ["threads_vs_serial"]
        # throughput still gates even when oversubscribed
        result = perf_diff([par_doc(0.5e6, 2.0, True)], ledger)
        assert not result.ok
        assert [c.metric for c in result.regressions] == (
            ["serial_updates_per_sec"]
        )


class TestPerfDiffCli:
    def _write_doc(self, tmp_path, name, **kw):
        path = tmp_path / name
        path.write_text(json.dumps(_doc(**kw)))
        return path

    def test_exit_codes(self, tmp_path):
        from repro.experiments.cli import main

        ledger = tmp_path / "ledger.jsonl"
        doc = self._write_doc(tmp_path, "BENCH_a.json")
        # no baseline: warn, exit 0 — and --record seeds the ledger
        assert main(["perf-diff", str(doc), "--against", str(ledger),
                     "--record"]) == 0
        # unchanged numbers against the recorded baseline: exit 0
        assert main(["perf-diff", str(doc), "--against", str(ledger)]) == 0
        slow = self._write_doc(tmp_path, "BENCH_slow.json",
                               updates_per_sec=0.5e6)
        assert main(["perf-diff", str(slow), "--against", str(ledger)]) == 1
        # tighter threshold flips a small change into a failure
        fast = self._write_doc(tmp_path, "BENCH_fast.json",
                               updates_per_sec=0.98e6)
        assert main(["perf-diff", str(fast), "--against", str(ledger)]) == 0
        assert main(["perf-diff", str(fast), "--against", str(ledger),
                     "--threshold", "0.01"]) == 1

    def test_unreadable_document_exits_2(self, tmp_path):
        from repro.experiments.cli import main

        bad = tmp_path / "not_json.json"
        bad.write_text("{")
        assert main(["perf-diff", str(bad)]) == 2
