"""Smoke tests for the canonical benchmarks (marker: ``perf``).

Runs ``benchmarks/bench_hot_path.py`` and ``benchmarks/bench_parallel.py``
on their tiny quick configs and checks the emitted ``BENCH_*.json``
documents against the pinned schemas. Speed is *not* asserted here (timing
on shared CI runners is noise at this scale, and the 1-core case makes any
parallel-scaling assertion meaningless); each benchmark's correctness
contract is — the two kernels' agreement for ``bench_hot_path``, bit
identity for ``bench_parallel`` — and holds at any problem size and core
count.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

pytestmark = pytest.mark.perf

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_PATH = BENCHMARKS / "bench_hot_path.py"


def _load(name: str):
    """Load a benchmark module by path (benchmarks/ is not a package)."""
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("bench_hot_path")


@pytest.fixture(scope="module")
def bench_par():
    return _load("bench_parallel")


class TestBenchHotPathSmoke:
    def test_quick_run_emits_valid_document(self, bench, tmp_path):
        out = tmp_path / "BENCH_hot_path.json"
        doc = bench.main(["--quick", "--out", str(out)])
        bench.validate_result(doc)  # raises on schema violations
        assert doc["config"] == bench.QUICK_CONFIG
        assert doc["agree"] is True
        on_disk = json.loads(out.read_text())
        assert on_disk == doc

    def test_validate_rejects_malformed_documents(self, bench):
        good = {
            "benchmark": "hot_path",
            "schema_version": bench.SCHEMA_VERSION,
            "config": dict(bench.QUICK_CONFIG),
            "meta": {"git_sha": "abc123def456", "timestamp_utc": "t",
                     "hostname": "h", "cpu_count": 4},
            "compiled_backend": "c",
            "metrics": {
                "epoch_seconds": 0.2, "c_epoch_seconds": 0.05,
                "speedup": 4.0, "updates_per_sec": 1e6,
                "c_updates_per_sec": 4e6, "rmse_gap": 2e-6,
                "profiler_overhead": 0.01,
                "sanitizer_overhead": 0.02,
                "sanitizer_overhead_c": 0.3,
                "plan_compiles": 1, "plan_repermutes": 1,
                "workspace_allocations": 2, "workspace_bytes": 1024,
            },
            "agree": True,
        }
        bench.validate_result(good)
        for mutate in (
            lambda d: d.pop("agree"),
            lambda d: d.pop("compiled_backend"),
            lambda d: d.update(benchmark="other"),
            lambda d: d.update(schema_version=99),
            lambda d: d["config"].update(nnz=0),
            lambda d: d["metrics"].update(speedup=-1.0),
            lambda d: d["metrics"].update(plan_compiles=1.5),
            lambda d: d["metrics"].pop("updates_per_sec"),
            lambda d: d["metrics"].pop("c_epoch_seconds"),
            lambda d: d["metrics"].update(rmse_gap=-1.0),
            lambda d: d["metrics"].pop("profiler_overhead"),
            # the 5% budget is part of the schema contract
            lambda d: d["metrics"].update(profiler_overhead=0.5),
            lambda d: d["metrics"].pop("sanitizer_overhead"),
            # likewise the sanitizer's 10% budget
            lambda d: d["metrics"].update(sanitizer_overhead=0.5),
            # reported on c, not gated: present, any value
            lambda d: d["metrics"].pop("sanitizer_overhead_c"),
            lambda d: d.pop("meta"),
            lambda d: d["meta"].pop("git_sha"),
        ):
            bad = json.loads(json.dumps(good))
            mutate(bad)
            with pytest.raises(ValueError, match="invalid BENCH_hot_path"):
                bench.validate_result(bad)

    def test_default_out_is_repo_root(self, bench):
        """BENCH_hot_path.json is canonical at the repo root (CI archives
        it from there)."""
        assert bench.DEFAULT_OUT == BENCHMARKS.parent / "BENCH_hot_path.json"


class TestBenchParallelSmoke:
    def test_quick_run_emits_valid_document(self, bench_par, tmp_path):
        out = tmp_path / "BENCH_parallel.json"
        doc = bench_par.main(["--quick", "--out", str(out)])
        bench_par.validate_result(doc)  # raises on schema violations
        assert doc["config"] == bench_par.effective_config(
            bench_par.QUICK_CONFIG)
        assert doc["config"]["backend"] == doc["auto"]["backend"]
        assert doc["bit_identical"] is True  # n_threads=1 == serial plan path
        assert doc["metrics"]["cpu_count"] >= 1
        on_disk = json.loads(out.read_text())
        assert on_disk == doc

    @staticmethod
    def _stall_report(executor: str) -> dict:
        from repro.obs.profiler import StallReport, WorkerPhases

        return StallReport(
            executor,
            [WorkerPhases(wid=w, wall_seconds=1.0,
                          seconds={"compute": 0.8, "spawn": 0.1})
             for w in range(2)],
        ).as_dict()

    def test_validate_rejects_malformed_documents(self, bench_par):
        metrics = {"cpu_count": 4, "oversubscribed": False}
        for key in bench_par.VARIANTS:
            metrics[f"{key}_epoch_seconds"] = 0.1
            metrics[f"{key}_updates_per_sec"] = 1e6
        metrics.update(threads_vs_serial=1.5, ooc_vs_threads=0.9,
                       auto_vs_serial=2.0)
        good = {
            "benchmark": "parallel",
            "schema_version": bench_par.SCHEMA_VERSION,
            "config": bench_par.effective_config(bench_par.QUICK_CONFIG),
            "meta": {"git_sha": "abc123def456", "timestamp_utc": "t",
                     "hostname": "h", "cpu_count": 4},
            "metrics": metrics,
            "auto": {"executor": "threads", "n_workers": 4,
                     "backend": "numpy", "reason": "measured"},
            "stall_report": self._stall_report("threads"),
            "stall_report_ooc": self._stall_report("threads_ooc"),
            "bit_identical": True,
        }
        bench_par.validate_result(good)
        for mutate in (
            lambda d: d.pop("bit_identical"),
            lambda d: d.update(benchmark="hot_path"),
            lambda d: d.update(schema_version=99),
            lambda d: d["config"].update(n_threads=0),
            lambda d: d["config"].pop("backend"),
            lambda d: d["metrics"].update(threads_vs_serial=0),
            lambda d: d["metrics"].update(cpu_count=1.5),
            lambda d: d["metrics"].pop("ooc_vs_threads"),
            # v3 removed the deprecated alias outright
            lambda d: d["metrics"].update(ooc_overhead=0.9),
            # the acceptance bar: auto never loses to serial
            lambda d: d["metrics"].update(auto_vs_serial=0.8),
            lambda d: d["metrics"].pop("auto_vs_serial"),
            lambda d: d["metrics"].pop("oversubscribed"),
            lambda d: d["metrics"].update(oversubscribed=1),
            lambda d: d.pop("auto"),
            lambda d: d["auto"].update(executor="gpu"),
            # v5: the process executor is gone
            lambda d: d["auto"].update(executor="procs"),
            lambda d: d["auto"].update(n_workers=0),
            lambda d: d["auto"].update(backend=""),
            lambda d: d.pop("meta"),
            lambda d: d["meta"].pop("hostname"),
            lambda d: d.pop("stall_report"),
            lambda d: d.pop("stall_report_ooc"),
            lambda d: d["stall_report"].update(executor="threads_ooc"),
            lambda d: d["stall_report"]["workers"].clear(),
            # fractions must sum to 1 ± 0.02 per worker
            lambda d: d["stall_report"]["workers"][0]["fractions"].update(
                compute=0.2),
            # measured phase seconds must fit inside the wall clock
            lambda d: (
                d["stall_report"]["workers"][0].update(wall_seconds=0.5),
                d["stall_report"]["workers"][0]["fractions"].update(
                    compute=0.8, spawn=0.1, replay=0.1),
            ),
        ):
            bad = json.loads(json.dumps(good))
            mutate(bad)
            with pytest.raises(ValueError, match="invalid BENCH_parallel"):
                bench_par.validate_result(bad)

    def test_quick_document_stall_reports(self, bench_par, tmp_path):
        """The emitted document embeds per-worker phase attribution whose
        fractions sum to 1 and whose measured seconds fit inside each
        worker's wall clock — the acceptance invariants."""
        import math

        out = tmp_path / "BENCH_parallel.json"
        doc = bench_par.main(["--quick", "--out", str(out)])
        for key, executor in (("stall_report", "threads"),
                              ("stall_report_ooc", "threads_ooc")):
            report = doc[key]
            assert report["executor"] == executor
            assert len(report["workers"]) == doc["config"]["n_threads"]
            for w in report["workers"]:
                total = math.fsum(w["fractions"][p] for p in report["phases"])
                assert abs(total - 1.0) <= 0.02
                measured = math.fsum(
                    w["seconds"][p] for p in report["phases"] if p != "replay"
                )
                assert measured <= w["wall_seconds"] * 1.02 + 1e-6
        # v3 dropped the deprecated alias and grew the auto decision
        assert "ooc_overhead" not in doc["metrics"]
        assert doc["metrics"]["auto_vs_serial"] >= 1.0
        assert doc["auto"]["executor"] in ("serial", "threads")
        # out of core the threads stall only on spawn and the prefetcher
        ooc = doc["stall_report_ooc"]["workers"][0]["seconds"]
        assert ooc["prefetch"] >= 0.0 and ooc["compute"] > 0

    def test_default_out_is_repo_root(self, bench_par):
        assert bench_par.DEFAULT_OUT == BENCHMARKS.parent / "BENCH_parallel.json"
