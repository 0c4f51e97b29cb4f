"""Phase attribution for parallel executors: where did the wall time go?

The parallel executors run at a fraction of serial throughput
(BENCH_parallel.json) and aggregate updates/s cannot say why. This module
classifies every worker's wall time into a fixed stall taxonomy:

``compute``
    inside the SGD kernels (the only phase that *earns* updates);
``spawn``
    dispatch-to-entry latency of the worker threads — the fixed cost
    HOGWILD!-style executors amortize over epochs;
``prefetch``
    consumer-side stalls waiting on the out-of-core
    :class:`~repro.data.blockstore.BlockPrefetcher` (the exposed, i.e.
    un-overlapped, transfer residue of the paper's §6.2 pipeline);
``replay``
    everything else — plan gather/compile, per-epoch bookkeeping.
    Computed as the residual ``wall − measured phases``, so the
    per-worker fractions sum to 1 by construction.

:class:`StallReport` carries per-worker and aggregate phase seconds and
fractions, is computed from the worker threads' trace spans
(:meth:`StallReport.from_trace`), serializes into ``BENCH_parallel.json``,
and publishes as the ``repro.profile.*`` metric family (manifest names on
:class:`repro.obs.registry.M`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.obs.tracer import THREAD_TID_BASE, WALL_PID

__all__ = [
    "PHASES",
    "WorkerPhases",
    "StallReport",
]

#: The stall taxonomy, in report order. ``replay`` is the residual phase —
#: it absorbs whatever wall time the measured phases do not cover.
PHASES = ("compute", "spawn", "prefetch", "replay")

_MEASURED = tuple(p for p in PHASES if p != "replay")


@dataclass
class WorkerPhases:
    """One worker's wall time split across the taxonomy.

    ``seconds`` holds the *measured* phases; ``replay`` is derived. When
    measured time exceeds the wall clock (overlapping instrumentation,
    clock noise) the denominator stretches to the measured sum, so
    fractions always total 1 for any worker with positive wall time.
    """

    wid: int
    wall_seconds: float
    seconds: dict = field(default_factory=dict)

    def attributed(self) -> dict:
        """Seconds per phase including the ``replay`` residual."""
        out = {p: max(0.0, float(self.seconds.get(p, 0.0))) for p in _MEASURED}
        out["replay"] = max(0.0, self.wall_seconds - sum(out.values()))
        return out

    def fractions(self) -> dict:
        att = self.attributed()
        denom = sum(att.values())
        if denom <= 0.0:
            return {p: 0.0 for p in PHASES}
        return {p: att[p] / denom for p in PHASES}


class StallReport:
    """Per-worker + aggregate phase attribution for one executor run."""

    def __init__(self, executor: str, workers: list[WorkerPhases]) -> None:
        self.executor = executor
        self.workers = list(workers)

    # -- aggregates -----------------------------------------------------
    @property
    def wall_seconds(self) -> float:
        return sum(w.wall_seconds for w in self.workers)

    def aggregate_seconds(self) -> dict:
        totals = {p: 0.0 for p in PHASES}
        for w in self.workers:
            for p, s in w.attributed().items():
                totals[p] += s
        return totals

    def aggregate_fractions(self) -> dict:
        totals = self.aggregate_seconds()
        denom = sum(totals.values())
        if denom <= 0.0:
            return {p: 0.0 for p in PHASES}
        return {p: totals[p] / denom for p in PHASES}

    # -- serialization --------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "executor": self.executor,
            "phases": list(PHASES),
            "workers": [
                {
                    "wid": w.wid,
                    "wall_seconds": w.wall_seconds,
                    "seconds": w.attributed(),
                    "fractions": w.fractions(),
                }
                for w in self.workers
            ],
            "aggregate": {
                "wall_seconds": self.wall_seconds,
                "seconds": self.aggregate_seconds(),
                "fractions": self.aggregate_fractions(),
            },
        }

    @classmethod
    def from_dict(cls, state: Mapping) -> "StallReport":
        workers = [
            WorkerPhases(
                wid=int(w["wid"]),
                wall_seconds=float(w["wall_seconds"]),
                seconds={
                    p: float(s)
                    for p, s in w["seconds"].items()
                    if p != "replay"  # re-derived from the wall clock
                },
            )
            for w in state["workers"]
        ]
        return cls(str(state["executor"]), workers)

    @classmethod
    def from_trace(cls, executor: str,
                   events: Iterable[Mapping]) -> "StallReport":
        """Fold worker threads' ``compute`` spans into a report.

        A worker thread appends one ``compute`` span per epoch on lane
        ``(WALL_PID, THREAD_TID_BASE + wid)``, its args carrying the
        dispatch-to-entry ``spawn`` seconds and, out of core, the epoch's
        prefetch ``stall`` seconds. Per worker, ``spawn`` and ``prefetch``
        sum those args, ``compute`` sums ``dur − stall``, and the wall time
        sums ``spawn + dur``. ``events`` is a ``traceEvents`` list, in
        memory or read back from a written trace, so a trace reproduces
        the report of the run that wrote it.
        """
        workers: dict[int, WorkerPhases] = {}
        for ev in events:
            if (ev.get("ph") != "X" or ev.get("cat") != "compute"
                    or ev.get("pid") != WALL_PID
                    or ev.get("tid", 0) < THREAD_TID_BASE):
                continue
            wid = ev["tid"] - THREAD_TID_BASE
            w = workers.get(wid)
            if w is None:
                w = workers[wid] = WorkerPhases(
                    wid, 0.0, dict.fromkeys(_MEASURED, 0.0))
            dur = ev["dur"] / 1e6  # trace_event durations are µs
            spawn = ev["args"]["spawn"]
            stall = ev["args"].get("stall", 0.0)
            w.seconds["spawn"] += spawn
            w.seconds["prefetch"] += stall
            w.seconds["compute"] += dur - stall
            w.wall_seconds += spawn + dur
        return cls(executor, [workers[wid] for wid in sorted(workers)])

    @staticmethod
    def validate_dict(state: Mapping, tolerance: float = 0.02) -> None:
        """Schema + invariant check for an embedded report (benchmarks).

        Every worker's fractions must sum to 1 ± ``tolerance`` (workers
        with zero attributed time sum to 0 and are rejected — a profiled
        run always observes wall time), and every worker's *measured*
        phase seconds must fit inside its wall clock: measured > wall
        means the producer read the accumulators while workers were still
        writing them — the ``replay`` residual clamp would hide exactly
        that corruption.
        """
        for key in ("executor", "phases", "workers", "aggregate"):
            if key not in state:
                raise ValueError(f"stall_report missing key {key!r}")
        if tuple(state["phases"]) != PHASES:
            raise ValueError(
                f"stall_report phases {state['phases']} != {list(PHASES)}"
            )
        if not state["workers"]:
            raise ValueError("stall_report has no workers")
        for w in state["workers"]:
            total = math.fsum(float(w["fractions"][p]) for p in PHASES)
            if abs(total - 1.0) > tolerance:
                raise ValueError(
                    f"worker {w['wid']} phase fractions sum to {total:.4f}, "
                    f"expected 1.0 ± {tolerance}"
                )
            wall = float(w["wall_seconds"])
            measured = math.fsum(
                float(w["seconds"].get(p, 0.0)) for p in _MEASURED
            )
            if measured > wall + max(tolerance * wall, 1e-6):
                raise ValueError(
                    f"worker {w['wid']} measured phase seconds "
                    f"{measured:.4f} exceed wall_seconds {wall:.4f} "
                    f"(± {tolerance:.0%}): phase windows overlap or were "
                    "read before the worker finished writing them"
                )

    # -- publication ----------------------------------------------------
    def publish(self, registry=None) -> None:
        """Emit ``repro.profile.*`` into ``registry`` (default: the ambient
        one; no-op when none is active)."""
        from repro.obs.context import active_registry

        if registry is None:
            registry = active_registry()
        if registry is None:
            return
        from repro.obs.registry import M

        scopes = [
            (str(w.wid), w.wall_seconds, w.attributed(), w.fractions())
            for w in self.workers
        ]
        scopes.append(
            (
                "all",
                self.wall_seconds,
                self.aggregate_seconds(),
                self.aggregate_fractions(),
            )
        )
        for worker, wall, seconds, fractions in scopes:
            base = {"executor": self.executor, "worker": worker}
            registry.gauge(M.PROFILE_WALL_SECONDS, base).set(wall)
            for p in PHASES:
                labels = {**base, "phase": p}
                registry.counter(M.PROFILE_PHASE_SECONDS, labels).inc(seconds[p])
                registry.gauge(M.PROFILE_PHASE_FRACTION, labels).set(fractions[p])

    # -- presentation ---------------------------------------------------
    def format(self) -> str:
        """Human-readable table for CLI output."""
        lines = [
            f"stall report — executor={self.executor}, "
            f"{len(self.workers)} workers, "
            f"{self.wall_seconds:.3f}s total worker wall time"
        ]
        header = "worker    wall(s)  " + "".join(f"{p:>10}" for p in PHASES)
        lines.append(header)
        rows = [
            (str(w.wid), w.wall_seconds, w.fractions()) for w in self.workers
        ]
        rows.append(("all", self.wall_seconds, self.aggregate_fractions()))
        for name, wall, fr in rows:
            cells = "".join(f"{fr[p]:>9.1%} " for p in PHASES)
            lines.append(f"{name:>6}  {wall:>9.3f}  {cells}")
        return "\n".join(lines)
