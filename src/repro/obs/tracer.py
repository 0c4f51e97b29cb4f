"""Span tracer emitting Chrome ``trace_event`` JSON.

Traces render in ``chrome://tracing`` or https://ui.perfetto.dev: load the
file produced by :meth:`Tracer.write` (or the ``cumf-sgd trace`` CLI
subcommand) and you get the stream-overlap timelines of Fig. 8, wavefront
column-lock waits, and multi-GPU block staging as zoomable flame rows.

Two time domains coexist:

* **wall spans** (:meth:`Tracer.span`) measure real elapsed time with
  ``time.perf_counter`` — used around trainer epochs and kernel waves;
* **simulated spans** (:meth:`Tracer.add_span`) take explicit start/duration
  in *seconds of simulated time* — used by :mod:`repro.gpusim.streams` and
  :mod:`repro.gpusim.event_sim`, whose clocks are model outputs, not wall
  time.

Both land in the same ``traceEvents`` list; keep simulated and wall traces
in separate ``pid`` rows (the helpers below default to that) so Perfetto
does not interleave incompatible clocks on one track.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping

__all__ = ["Tracer", "WALL_PID", "SIM_PID", "THREAD_TID_BASE"]

#: Default process rows: wall-clock instrumentation vs simulated timelines.
WALL_PID = 1
SIM_PID = 100
#: Worker thread lanes share the trainer's pid and fan out as tids
#: (``THREAD_TID_BASE + tid``), so they nest under it in Perfetto.
THREAD_TID_BASE = 10


class Tracer:
    """Collects Chrome ``trace_event`` dicts (the JSON Array Format)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._origin = clock()
        self.events: list[dict] = []
        self._named_threads: set[tuple[int, int]] = set()

    @property
    def origin(self) -> float:
        """The raw clock reading that is this tracer's t=0. Code that reads
        ``time.perf_counter`` itself (worker threads, the block prefetcher)
        subtracts it so its spans land on this tracer's timeline."""
        return self._origin

    # -- low-level emitters --------------------------------------------
    def add_span(
        self,
        name: str,
        start_seconds: float,
        duration_seconds: float,
        *,
        pid: int = SIM_PID,
        tid: int = 0,
        cat: str = "sim",
        args: Mapping[str, object] | None = None,
    ) -> None:
        """Complete event (``ph: "X"``) at an explicit simulated time."""
        self.events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": start_seconds * 1e6,  # trace_event timestamps are µs
                "dur": max(0.0, duration_seconds) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": dict(args or {}),
            }
        )

    def instant(
        self,
        name: str,
        ts_seconds: float | None = None,
        *,
        pid: int = WALL_PID,
        tid: int = 0,
        cat: str = "mark",
        args: Mapping[str, object] | None = None,
    ) -> None:
        """Instant event (``ph: "i"``), e.g. an epoch boundary."""
        ts = self._now() if ts_seconds is None else ts_seconds
        self.events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "ts": ts * 1e6,
                "pid": pid,
                "tid": tid,
                "s": "t",  # thread-scoped instant
                "args": dict(args or {}),
            }
        )

    def counter(
        self,
        name: str,
        values: Mapping[str, float],
        ts_seconds: float | None = None,
        *,
        pid: int = WALL_PID,
        tid: int = 0,
    ) -> None:
        """Counter event (``ph: "C"``) — renders as a stacked area track."""
        ts = self._now() if ts_seconds is None else ts_seconds
        self.events.append(
            {
                "name": name,
                "cat": "counter",
                "ph": "C",
                "ts": ts * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {k: float(v) for k, v in values.items()},
            }
        )

    def name_thread(self, pid: int, tid: int, name: str) -> None:
        """Metadata event labelling a (pid, tid) track, e.g. "stream:H2D"."""
        if (pid, tid) in self._named_threads:
            return
        self._named_threads.add((pid, tid))
        self.events.append(
            {
                "name": "thread_name",
                "cat": "__metadata",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )

    # -- wall-clock spans ----------------------------------------------
    def _now(self) -> float:
        return self._clock() - self._origin

    def now(self) -> float:
        """Seconds since this tracer was created (its wall-time origin)."""
        return self._now()

    @contextmanager
    def span(
        self,
        name: str,
        *,
        pid: int = WALL_PID,
        tid: int = 0,
        cat: str = "wall",
        args: Mapping[str, object] | None = None,
    ) -> Iterator[dict]:
        """Wall-clock span; yields a dict whose entries become span args."""
        extra: dict = dict(args or {})
        start = self._now()
        try:
            yield extra
        finally:
            self.add_span(
                name,
                start,
                self._now() - start,
                pid=pid,
                tid=tid,
                cat=cat,
                args=extra,
            )

    # -- export ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def to_chrome(self) -> dict:
        """The JSON Object Format Chrome and Perfetto both accept."""
        return {
            "traceEvents": list(self.events),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs.tracer"},
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_chrome(), indent=indent)

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(indent=1) + "\n")
        return path
