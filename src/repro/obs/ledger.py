"""Perf ledger: an append-only history of canonical benchmark runs.

Every ``BENCH_*.json`` document the benchmarks emit can be appended (one
JSON line per run) to ``results/perf_ledger.jsonl``, stamped with
provenance from :func:`bench_meta` — git SHA, UTC timestamp, hostname,
cpu count — so a number in the ledger is always attributable to a commit
and a machine. ``cumf-sgd perf-diff`` then compares a fresh run against
the latest ledger entry with the *same benchmark and config* (quick runs
never gate against reference runs, and a laptop never gates against CI)
and fails on a >15% drop in the gated throughput metrics
(``updates_per_sec`` / ``speedup`` families). No matching baseline is a
warning, not a failure — the first run on a new config seeds the gate.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

__all__ = [
    "bench_meta",
    "git_sha",
    "PerfLedger",
    "MetricComparison",
    "PerfDiffResult",
    "gated_metrics",
    "is_speedup_metric",
    "diff_against",
    "perf_diff",
    "DEFAULT_THRESHOLD",
    "DEFAULT_LEDGER_PATH",
]

#: Regression gate: fail when a gated metric drops more than this fraction
#: below its baseline.
DEFAULT_THRESHOLD = 0.15

#: Canonical in-repo ledger location (relative to the repo root).
DEFAULT_LEDGER_PATH = Path("results") / "perf_ledger.jsonl"


def git_sha(cwd: str | Path | None = None) -> str:
    """Short git SHA of HEAD, or ``"unknown"`` outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - no git
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def bench_meta(cwd: str | Path | None = None) -> dict:
    """Provenance stamp shared by every canonical ``BENCH_*.json``."""
    return {
        "git_sha": git_sha(cwd),
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count() or 1,
    }


# ---------------------------------------------------------------------------
# the ledger file
# ---------------------------------------------------------------------------
class PerfLedger:
    """One JSONL line per benchmark run; append-only, torn-line tolerant."""

    def __init__(self, path: str | Path = DEFAULT_LEDGER_PATH) -> None:
        self.path = Path(path)

    def entries(self) -> list[dict]:
        """All well-formed entries in file order (torn lines skipped)."""
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return []
        out = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and "benchmark" in entry:
                out.append(entry)
        return out

    def append(self, doc: dict) -> dict:
        """Stamp ``doc`` with :func:`bench_meta` (if unstamped) and append.

        Returns the entry as written. The source dict is not mutated.
        """
        entry = json.loads(json.dumps(doc))
        entry.setdefault("meta", bench_meta())
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        return entry

    def baseline(self, doc: dict) -> dict | None:
        """Latest entry comparable to ``doc``: same benchmark, same schema
        version, same config. Config equality is the apples-to-apples
        guard — a quick config never gates against a reference run."""
        match = None
        for entry in self.entries():
            if (
                entry.get("benchmark") == doc.get("benchmark")
                and entry.get("schema_version") == doc.get("schema_version")
                and entry.get("config") == doc.get("config")
            ):
                match = entry
        return match


# ---------------------------------------------------------------------------
# regression diff
# ---------------------------------------------------------------------------
def is_speedup_metric(name: str) -> bool:
    """Whether a gated metric is a higher-is-better speedup *ratio*.

    ``speedup`` families and the ``*_vs_serial`` ratios qualify; plain
    ``_vs_`` does not (``ooc_vs_threads`` is lower-is-better). Speedup
    ratios are skipped by :func:`perf_diff` when the run is flagged
    ``oversubscribed`` — with more workers than cores they measure
    contention, not capacity.
    """
    return "speedup" in name or name.endswith("_vs_serial")


def gated_metrics(metrics: dict) -> dict:
    """The throughput metrics the regression gate watches: every
    ``*updates_per_sec`` plus every speedup-family key (higher is
    better for all of them; see :func:`is_speedup_metric`). Bools are
    excluded — flags like ``oversubscribed`` pass ``isinstance(...,
    int)`` but are not throughput."""
    return {
        name: float(value)
        for name, value in metrics.items()
        if isinstance(value, (int, float))
        and not isinstance(value, bool)
        and (name.endswith("updates_per_sec") or is_speedup_metric(name))
    }


@dataclass
class MetricComparison:
    """One gated metric against its baseline value."""

    benchmark: str
    metric: str
    baseline: float
    current: float
    threshold: float

    @property
    def delta_fraction(self) -> float:
        """Relative change; negative means slower than baseline."""
        if self.baseline == 0:
            return 0.0
        return (self.current - self.baseline) / self.baseline

    @property
    def regressed(self) -> bool:
        return self.delta_fraction < -self.threshold


def diff_against(
    doc: dict, baseline: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[MetricComparison]:
    """Compare ``doc``'s gated metrics against a comparable baseline entry."""
    base = gated_metrics(baseline.get("metrics", {}))
    out = []
    for name, current in sorted(gated_metrics(doc.get("metrics", {})).items()):
        if name in base:
            out.append(
                MetricComparison(
                    benchmark=str(doc.get("benchmark", "?")),
                    metric=name,
                    baseline=base[name],
                    current=current,
                    threshold=threshold,
                )
            )
    return out


@dataclass
class PerfDiffResult:
    """Outcome of diffing one or more documents against a ledger."""

    comparisons: list[MetricComparison]
    missing: list[str]  # benchmarks with no comparable baseline
    #: "benchmark:metric" speedup comparisons dropped because the current
    #: run was flagged oversubscribed (more workers than cores)
    skipped: list[str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.skipped is None:
            self.skipped = []

    @property
    def regressions(self) -> list[MetricComparison]:
        return [c for c in self.comparisons if c.regressed]

    @property
    def ok(self) -> bool:
        """False only on a confirmed regression — a missing baseline is a
        warning (the run seeds the gate), not a failure."""
        return not self.regressions

    def format(self) -> str:
        lines = []
        for c in self.comparisons:
            verdict = "REGRESSION" if c.regressed else "ok"
            lines.append(
                f"{verdict:>10}  {c.benchmark}:{c.metric}  "
                f"baseline={c.baseline:.6g}  current={c.current:.6g}  "
                f"({c.delta_fraction:+.1%}, gate -{c.threshold:.0%})"
            )
        for name in self.skipped:
            lines.append(
                f"{'skipped':>10}  {name}: oversubscribed run (workers > "
                "cores) — speedup ratios measure contention, not gated"
            )
        for name in self.missing:
            lines.append(
                f"{'no-baseline':>10}  {name}: no comparable ledger entry "
                "(same benchmark+config) — skipping, this run can seed one"
            )
        if not lines:
            lines.append("perf-diff: nothing to compare")
        return "\n".join(lines)


def perf_diff(
    docs: list[dict],
    ledger: PerfLedger,
    threshold: float = DEFAULT_THRESHOLD,
) -> PerfDiffResult:
    """Diff each document against its ledger baseline (see
    :meth:`PerfLedger.baseline` for what "comparable" means).

    Documents flagged ``metrics.oversubscribed`` keep their
    ``updates_per_sec`` gates but skip the speedup-ratio gates (recorded
    on :attr:`PerfDiffResult.skipped`): a run with more workers than
    cores measures contention, and gating on its ratios would flag the
    host, not the code.
    """
    comparisons: list[MetricComparison] = []
    missing: list[str] = []
    skipped: list[str] = []
    for doc in docs:
        baseline = ledger.baseline(doc)
        if baseline is None:
            missing.append(str(doc.get("benchmark", "?")))
            continue
        compared = diff_against(doc, baseline, threshold)
        if doc.get("metrics", {}).get("oversubscribed"):
            for c in compared:
                if is_speedup_metric(c.metric):
                    skipped.append(f"{c.benchmark}:{c.metric}")
                else:
                    comparisons.append(c)
        else:
            comparisons.extend(compared)
    return PerfDiffResult(
        comparisons=comparisons, missing=missing, skipped=skipped
    )
