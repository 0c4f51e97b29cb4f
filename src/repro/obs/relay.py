"""Worker-thread telemetry merged into the parent's trace.

Worker threads do not append to the shared :class:`~repro.obs.tracer.Tracer`
while they compute. Each owns a :class:`WorkerTelemetry` -- a tracer-shaped
in-memory buffer that records span/instant/counter events against the
tracer's clock origin -- and after the epochs the executor replays every
buffer into the tracer with :func:`merge_records`, one thread lane per
worker (``tid = THREAD_TID_BASE + wid`` under the trainer's ``WALL_PID``),
so a threaded run renders as one multi-lane Chrome timeline next to the
trainer lane. Timestamps are clamped at 0 in the merge (the trace schema
rejects negative ``ts``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Mapping

from repro.obs.tracer import WALL_PID, Tracer

__all__ = [
    "WorkerTelemetry",
    "merge_records",
    "THREAD_TID_BASE",
]

#: Trace lane base: worker threads share the parent pid and fan out as
#: tids (``THREAD_TID_BASE + tid``), so they nest under the trainer process
#: in Perfetto.
THREAD_TID_BASE = 10


class WorkerTelemetry:
    """Worker-side event buffer with the tracer's span vocabulary.

    Every record carries the worker id and a timestamp relative to the
    parent tracer's origin, so the merge is a pure replay; the executor
    collects the records with :meth:`drain`.
    """

    def __init__(
        self,
        wid: int,
        origin: float = 0.0,
        clock=time.perf_counter,
    ) -> None:
        self.wid = int(wid)
        self.origin = float(origin)
        self._clock = clock
        self.records: list[dict] = []

    # -- clock ----------------------------------------------------------
    def now(self) -> float:
        """Seconds on the parent tracer's timeline."""
        return self._clock() - self.origin

    # -- emitters -------------------------------------------------------
    def add_span(
        self,
        name: str,
        start_seconds: float,
        duration_seconds: float,
        *,
        cat: str = "worker",
        args: Mapping[str, object] | None = None,
    ) -> None:
        self.records.append(
            {
                "wid": self.wid,
                "kind": "span",
                "name": name,
                "ts": float(start_seconds),
                "dur": max(0.0, float(duration_seconds)),
                "cat": cat,
                "args": dict(args or {}),
            }
        )

    @contextmanager
    def span(
        self,
        name: str,
        *,
        cat: str = "worker",
        args: Mapping[str, object] | None = None,
    ) -> Iterator[dict]:
        """Wall-clock span; yielded dict entries become span args."""
        extra: dict = dict(args or {})
        start = self.now()
        try:
            yield extra
        finally:
            self.add_span(name, start, self.now() - start, cat=cat, args=extra)

    def instant(
        self,
        name: str,
        ts_seconds: float | None = None,
        *,
        cat: str = "mark",
        args: Mapping[str, object] | None = None,
    ) -> None:
        self.records.append(
            {
                "wid": self.wid,
                "kind": "instant",
                "name": name,
                "ts": self.now() if ts_seconds is None else float(ts_seconds),
                "cat": cat,
                "args": dict(args or {}),
            }
        )

    def counter(
        self,
        name: str,
        values: Mapping[str, float],
        ts_seconds: float | None = None,
    ) -> None:
        self.records.append(
            {
                "wid": self.wid,
                "kind": "counter",
                "name": name,
                "ts": self.now() if ts_seconds is None else float(ts_seconds),
                "values": {k: float(v) for k, v in values.items()},
            }
        )

    # -- hand-off -------------------------------------------------------
    def drain(self) -> list[dict]:
        """Pop and return buffered records."""
        records, self.records = self.records, []
        return records


def merge_records(tracer: Tracer, records: list[dict], *,
                  label: str = "worker") -> int:
    """Replay worker records into ``tracer``: worker ``w`` renders as
    thread row ``(WALL_PID, THREAD_TID_BASE + w)``, named ``label:w``.

    Deterministic output order — all lane metadata first (workers sorted),
    then events sorted by ``(ts, wid)`` — so merged traces diff stably.
    Timestamps clamp at 0 (the schema's floor). Returns events replayed.
    """
    pid = WALL_PID
    for wid in sorted({int(rec["wid"]) for rec in records}):
        tracer.name_thread(pid, THREAD_TID_BASE + wid, f"{label}:{wid}")
    merged = 0
    for rec in sorted(records, key=lambda r: (r.get("ts", 0.0), r["wid"])):
        tid = THREAD_TID_BASE + int(rec["wid"])
        ts = max(0.0, float(rec.get("ts", 0.0)))
        kind = rec["kind"]
        if kind == "span":
            tracer.add_span(
                rec["name"], ts, float(rec.get("dur", 0.0)),
                pid=pid, tid=tid, cat=rec.get("cat", "worker"),
                args=rec.get("args"),
            )
        elif kind == "instant":
            tracer.instant(
                rec["name"], ts, pid=pid, tid=tid,
                cat=rec.get("cat", "mark"), args=rec.get("args"),
            )
        else:  # counter
            tracer.counter(rec["name"], rec.get("values", {}), ts, pid=pid, tid=tid)
        merged += 1
    return merged
