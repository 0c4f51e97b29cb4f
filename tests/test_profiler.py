"""Cross-worker profiling: trace relay, stall attribution, perf ledger.

Covers the observability additions around the parallel executors:

* `repro.obs.relay` — per-thread telemetry buffers and their deterministic
  merge onto thread lanes of one Chrome trace;
* `repro.obs.profiler` — the StallReport phase taxonomy (fractions sum to
  1 by construction), serialization round-trip, `repro.profile.*`
  publication;
* `repro.obs.ledger` — provenance stamps, config-matched baselines, and
  the >15% `perf-diff` regression gate (plus its CLI exit codes);
* the executor wiring — a threaded `CuMFSGD` fit under a collector, in
  core or out of core, yields one schema-valid trace with a lane per
  thread and an embeddable stall report.
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
from repro.obs.profiler import PHASES, PhaseTimer, StallReport, WorkerPhases
from repro.obs.registry import METRIC_MANIFEST, M, MetricsRegistry
from repro.obs.relay import THREAD_TID_BASE, WorkerTelemetry, merge_records
from repro.obs.tracer import WALL_PID, Tracer

pytestmark = pytest.mark.obs


# ---------------------------------------------------------------------------
# relay: in-memory telemetry, merge
# ---------------------------------------------------------------------------
class TestWorkerTelemetry:
    def test_drain_round_trips_record_kinds(self):
        wt = WorkerTelemetry(3, origin=0.0)
        wt.add_span("epoch 1 compute", 0.5, 0.25, args={"updates": 10})
        wt.instant("mark", 0.6)
        wt.counter("repro.test", {"v": 1.0}, ts_seconds=0.7)
        records = wt.drain()
        assert wt.records == []  # buffer cleared
        assert [r["kind"] for r in records] == ["span", "instant", "counter"]
        assert all(r["wid"] == 3 for r in records)
        assert records[0]["dur"] == 0.25
        assert records[0]["args"] == {"updates": 10}

    def test_in_memory_mode_drain(self):
        wt = WorkerTelemetry(1)
        wt.add_span("x", 0.0, 0.1)
        drained = wt.drain()
        assert len(drained) == 1
        assert wt.records == []


class TestMergeRecords:
    def _records(self):
        return [
            {"wid": 1, "kind": "span", "name": "late", "ts": 2.0, "dur": 0.5},
            {"wid": 0, "kind": "span", "name": "early", "ts": 1.0, "dur": 0.5},
            {"wid": 1, "kind": "span", "name": "first", "ts": 0.5, "dur": 0.1},
        ]

    def test_thread_layout_shares_parent_pid(self):
        tracer = Tracer()
        merge_records(tracer, self._records(), label="thread")
        spans = [e for e in tracer.to_chrome()["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in spans} == {WALL_PID}
        assert {e["tid"] for e in spans} == {THREAD_TID_BASE, THREAD_TID_BASE + 1}

    def test_thread_layout_lanes_and_ordering(self):
        tracer = Tracer()
        n = merge_records(tracer, self._records(), label="thread")
        assert n == 3
        events = tracer.to_chrome()["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        # lane metadata first (sorted wids), then events sorted by (ts, wid)
        assert events[: len(meta)] == meta
        assert {e["pid"] for e in spans} == {WALL_PID}
        tids = [e["tid"] for e in spans]
        assert tids == [THREAD_TID_BASE + 1, THREAD_TID_BASE,
                        THREAD_TID_BASE + 1]
        assert [e["name"] for e in spans] == ["first", "early", "late"]
        named = {(e["tid"], e["args"]["name"]) for e in meta}
        assert named == {(THREAD_TID_BASE, "thread:0"),
                         (THREAD_TID_BASE + 1, "thread:1")}

    def test_negative_timestamps_clamped(self):
        tracer = Tracer()
        merge_records(
            tracer,
            [{"wid": 0, "kind": "span", "name": "pre", "ts": -0.5, "dur": 0.1}],
        )
        trace = tracer.to_chrome()
        validate_chrome_trace(trace)  # schema rejects ts < 0
        span = [e for e in trace["traceEvents"] if e["ph"] == "X"][0]
        assert span["ts"] == 0


class TestTracerLaneNaming:
    def test_name_process_emits_deduped_metadata(self):
        tracer = Tracer()
        tracer.name_process(200, "proc 0")
        tracer.name_process(200, "proc 0")  # dedup
        tracer.name_thread(200, 0, "proc:0")
        meta = [
            e for e in tracer.to_chrome()["traceEvents"]
            if e["name"] == "process_name"
        ]
        assert len(meta) == 1
        assert meta[0]["pid"] == 200 and meta[0]["args"]["name"] == "proc 0"
        validate_chrome_trace(tracer.to_chrome())

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
                WorkerPhases(0, 2.0, {"compute": 1.2, "barrier": 0.4,
                                      "spawn": 0.2}),
                WorkerPhases(1, 2.0, {"compute": 1.6, "barrier": 0.1,
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
        w = WorkerPhases(0, 1.0, {"compute": 0.9, "barrier": 0.4})
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
            [WorkerPhases(0, 1.0, {"compute": 1.3, "barrier": 0.2})],
        )
        # fractions still sum to 1 (stretched denominator) — only the
        # new wall-clock invariant catches the corruption
        state = report.as_dict()
        assert math.fsum(
            state["workers"][0]["fractions"].values()
        ) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="exceed wall_seconds"):
            StallReport.validate_dict(state)

    def test_phase_timer_accumulates(self):
        ticks = iter([0.0, 1.0, 1.0, 1.5])
        timer = PhaseTimer(clock=lambda: next(ticks))
        with timer.phase("barrier"):
            pass
        with timer.phase("compute"):
            pass
        assert timer.seconds["barrier"] == pytest.approx(1.0)
        assert timer.seconds["compute"] == pytest.approx(0.5)

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
