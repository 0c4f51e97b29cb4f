"""Sanitizer report: per-worker race-rate table + findings, StallReport-style.

Serializes (``as_dict``/``from_dict``), validates (``validate_dict`` — used
by the benchmark documents that embed it), publishes the ``repro.san.*``
metric family, and pretty-prints for the CLI.
"""

from __future__ import annotations

from typing import Mapping

from repro.san.errors import SanFinding
from repro.san.races import RaceStats, WorkerRaceStats

__all__ = ["SanReport"]


class SanReport:
    """Outcome of one sanitized run: findings + race/numeric/lifecycle stats."""

    def __init__(
        self,
        mode: str,
        findings: list,
        race_stats: RaceStats,
        numeric: dict | None = None,
        lifecycle: dict | None = None,
    ) -> None:
        self.mode = mode
        self.findings = list(findings)
        self.race_stats = race_stats
        self.numeric = dict(numeric or {})
        self.lifecycle = dict(lifecycle or {})

    @property
    def clean(self) -> bool:
        return not self.findings

    # -- serialization --------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "clean": self.clean,
            "findings": [f.as_dict() for f in self.findings],
            "race": self.race_stats.as_dict(),
            "numeric": self.numeric,
            "lifecycle": self.lifecycle,
        }

    @classmethod
    def from_dict(cls, state: Mapping) -> "SanReport":
        race = state.get("race", {})
        stats = RaceStats(
            workers=[
                WorkerRaceStats(
                    wid=int(w["wid"]),
                    samples=int(w["samples"]),
                    calls=int(w.get("calls", 0)),
                    row_raced=int(w.get("row_raced", 0)),
                    col_raced=int(w.get("col_raced", 0)),
                    raced=int(w.get("raced", 0)),
                )
                for w in race.get("workers", [])
            ],
            epochs=int(race.get("epochs", 0)),
            waves=int(race.get("waves", 0)),
        )
        findings = [
            SanFinding(
                kind=str(f["kind"]), message=str(f["message"]),
                worker=f.get("worker"), epoch=f.get("epoch"),
                wave=f.get("wave"),
            )
            for f in state.get("findings", [])
        ]
        return cls(
            str(state["mode"]), findings, stats,
            numeric=state.get("numeric"), lifecycle=state.get("lifecycle"),
        )

    @staticmethod
    def validate_dict(state: Mapping) -> None:
        """Schema + invariant check for an embedded report (benchmarks)."""
        for key in ("mode", "clean", "findings", "race"):
            if key not in state:
                raise ValueError(f"sanitizer report missing key {key!r}")
        if state["clean"] is not (len(state["findings"]) == 0):
            raise ValueError(
                "sanitizer report 'clean' flag disagrees with its findings"
            )
        race = state["race"]
        for key in ("samples", "raced", "race_rate", "workers"):
            if key not in race:
                raise ValueError(f"sanitizer race block missing {key!r}")
        rate = float(race["race_rate"])
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"race_rate {rate} outside [0, 1]")
        if int(race["raced"]) > int(race["samples"]):
            raise ValueError("raced samples exceed total samples")

    # -- publication ----------------------------------------------------
    def publish(self, registry=None) -> None:
        """Emit ``repro.san.*`` into ``registry`` (default: the ambient
        one; no-op when none is active)."""
        from repro.obs.context import active_registry
        from repro.obs.registry import M

        if registry is None:
            registry = active_registry()
        if registry is None:
            return
        registry.gauge(M.SAN_FINDINGS, {"mode": self.mode}).set(
            len(self.findings)
        )
        scopes = [
            (str(w.wid), w.samples, w.raced, w.race_rate)
            for w in self.race_stats.workers
        ]
        scopes.append(
            (
                "all",
                self.race_stats.samples,
                self.race_stats.raced,
                self.race_stats.race_rate,
            )
        )
        for worker, samples, raced, rate in scopes:
            labels = {"worker": worker}
            registry.counter(M.SAN_RACE_SAMPLES, labels).inc(samples)
            registry.counter(M.SAN_RACE_RACED, labels).inc(raced)
            registry.gauge(M.SAN_RACE_RATE, labels).set(rate)
        if self.numeric:
            registry.counter(M.SAN_NUMERIC_CHECKS).inc(
                int(self.numeric.get("wave_checks", 0))
                + int(self.numeric.get("model_checks", 0))
                + int(self.numeric.get("block_checks", 0))
            )
        if self.lifecycle:
            leaked = sum(
                1 for f in self.findings if f.kind.startswith("lifecycle-")
            )
            registry.gauge(M.SAN_LIFECYCLE_LEAKS).set(leaked)

    # -- presentation ---------------------------------------------------
    def format(self) -> str:
        """Human-readable table for CLI output (StallReport idiom)."""
        stats = self.race_stats
        lines = [
            f"sanitizer report — mode={self.mode}, "
            f"{len(self.findings)} finding(s), "
            f"{stats.samples} samples over {stats.waves} concurrent waves"
        ]
        if stats.workers:
            lines.append(
                f"{'worker':>6}  {'samples':>10}  {'row-raced':>10}  "
                f"{'col-raced':>10}  {'race-rate':>10}"
            )
            rows = [
                (str(w.wid), w.samples, w.row_raced, w.col_raced, w.race_rate)
                for w in stats.workers
            ]
            rows.append(
                (
                    "all", stats.samples,
                    sum(w.row_raced for w in stats.workers),
                    sum(w.col_raced for w in stats.workers),
                    stats.race_rate,
                )
            )
            for name, samples, rr, cr, rate in rows:
                lines.append(
                    f"{name:>6}  {samples:>10}  {rr:>10}  {cr:>10}  "
                    f"{rate:>10.2%}"
                )
        if self.numeric:
            lines.append(
                "numeric: "
                f"{self.numeric.get('wave_checks', 0)} wave checks, "
                f"{self.numeric.get('model_checks', 0)} model sweeps, "
                f"{self.numeric.get('block_checks', 0)} block checks, "
                f"max|err|={self.numeric.get('max_abs_err', 0.0):.3e}"
            )
        if self.lifecycle:
            lc = self.lifecycle
            lines.append(
                "lifecycle: "
                f"{lc.get('mmaps_opened', 0)} mmaps / "
                f"{lc.get('mmaps_released', 0)} released"
            )
        for f in self.findings:
            lines.append(f"FINDING {f.format()}")
        return "\n".join(lines)
