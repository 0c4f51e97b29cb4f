"""Structured metrics registry: counters, gauges, histograms, series.

Every quantity the reproduction reports — Eq. 7 updates/s, effective
bandwidth (footnote 2), scheduler lock waits, Hogwild conflict rates,
simulated SM occupancy — flows through one :class:`MetricsRegistry` under a
stable ``repro.*`` naming scheme (see ``docs/OBSERVABILITY.md``). Metrics
carry optional label sets (``("dataset", "netflix")``-style pairs) so one
name can hold a family of series, Prometheus-style, and the whole registry
round-trips through JSON / JSONL for artifact files under ``results/``.

Design constraints:

* **cheap** — a counter increment is one dict lookup (cached by the caller)
  plus an integer add; nothing allocates on the hot path;
* **deterministic export** — metrics serialize sorted by (name, labels) so
  artifact diffs are stable across runs;
* **round-trip** — ``MetricsRegistry.from_dict(reg.to_dict())`` reproduces
  every value exactly (tested in ``tests/test_obs.py``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricsRegistry",
    "Labels",
    "M",
    "METRIC_MANIFEST",
    "DYNAMIC_METRIC_PREFIXES",
    "manifest_allows",
]

#: Canonical label representation: a sorted tuple of (key, value) pairs.
Labels = tuple[tuple[str, str], ...]


def _canon_labels(labels: Mapping[str, object] | Labels | None) -> Labels:
    if not labels:
        return ()
    if isinstance(labels, tuple):
        items = labels
    else:
        items = tuple(labels.items())
    return tuple(sorted((str(k), str(v)) for k, v in items))


@dataclass
class Counter:
    """Monotonically increasing count (events, updates, bytes, waits)."""

    name: str
    labels: Labels = ()
    value: float = 0.0

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        self.value += amount

    def snapshot(self) -> dict:
        return {"value": self.value}

    def restore(self, state: dict) -> None:
        self.value = float(state["value"])


@dataclass
class Gauge:
    """Point-in-time value (a rate, a fraction, a temperature)."""

    name: str
    labels: Labels = ()
    value: float = math.nan
    updates: int = 0

    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1

    def snapshot(self) -> dict:
        return {"value": self.value, "updates": self.updates}

    def restore(self, state: dict) -> None:
        self.value = float(state["value"])
        self.updates = int(state.get("updates", 0))


@dataclass
class Histogram:
    """Fixed-bucket histogram with the Prometheus cumulative-le convention.

    ``buckets`` holds the *upper edges*; an implicit +inf bucket catches the
    overflow. Bucket counts here are stored per-bucket (not cumulative) and
    accumulated into the matching edge via binary search.
    """

    name: str
    buckets: tuple[float, ...]
    labels: Labels = ()
    counts: list[int] = field(default_factory=list)
    total: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    kind = "histogram"

    def __post_init__(self) -> None:
        edges = tuple(float(b) for b in self.buckets)
        if not edges:
            raise ValueError(f"histogram {self.name} needs at least one bucket edge")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(f"histogram {self.name} edges must be strictly increasing")
        self.buckets = edges
        if not self.counts:
            self.counts = [0] * (len(edges) + 1)  # +1 for the +inf overflow
        elif len(self.counts) != len(edges) + 1:
            raise ValueError(
                f"histogram {self.name}: {len(self.counts)} counts for "
                f"{len(edges)} edges (need edges+1)"
            )

    def observe(self, value: float) -> None:
        value = float(value)
        # first bucket whose upper edge admits the value (le convention)
        lo, hi = 0, len(self.buckets)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.total += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else math.nan

    def bucket_edges(self) -> tuple[float, ...]:
        """Upper edges including the implicit +inf overflow edge."""
        return self.buckets + (math.inf,)

    def snapshot(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
            "min": None if math.isinf(self.min) else self.min,
            "max": None if math.isinf(self.max) else self.max,
        }

    def restore(self, state: dict) -> None:
        self.counts = [int(c) for c in state["counts"]]
        self.total = int(state["total"])
        self.sum = float(state["sum"])
        self.min = math.inf if state["min"] is None else float(state["min"])
        self.max = -math.inf if state["max"] is None else float(state["max"])


@dataclass
class Series:
    """Append-only (x, value) series — per-epoch RMSE, per-round waits."""

    name: str
    labels: Labels = ()
    xs: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    kind = "series"

    def append(self, x: float, value: float) -> None:
        self.xs.append(float(x))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.values)

    def snapshot(self) -> dict:
        return {"xs": self.xs, "values": self.values}

    def restore(self, state: dict) -> None:
        self.xs = [float(x) for x in state["xs"]]
        self.values = [float(v) for v in state["values"]]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram, "series": Series}

Metric = Counter | Gauge | Histogram | Series


class MetricsRegistry:
    """Registry of named, labeled metrics with JSON / JSONL export."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, Labels], Metric] = {}
        self._kinds: dict[str, str] = {}

    # -- registration ---------------------------------------------------
    def _get_or_create(self, kind: str, name: str, labels, factory) -> Metric:
        if not name:
            raise ValueError("metric name must be non-empty")
        canon = _canon_labels(labels)
        key = (name, canon)
        metric = self._metrics.get(key)
        if metric is not None:
            if metric.kind != kind:
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested as {kind}"
                )
            return metric
        registered = self._kinds.get(name)
        if registered is not None and registered != kind:
            raise TypeError(
                f"metric {name!r} already registered as {registered}, "
                f"requested as {kind}"
            )
        metric = factory(canon)
        self._metrics[key] = metric
        self._kinds[name] = kind
        return metric

    def counter(self, name: str, labels: Mapping[str, object] | None = None) -> Counter:
        return self._get_or_create(
            "counter", name, labels, lambda c: Counter(name, labels=c)
        )

    def gauge(self, name: str, labels: Mapping[str, object] | None = None) -> Gauge:
        return self._get_or_create(
            "gauge", name, labels, lambda c: Gauge(name, labels=c)
        )

    def histogram(
        self,
        name: str,
        buckets: Iterable[float],
        labels: Mapping[str, object] | None = None,
    ) -> Histogram:
        edges = tuple(buckets)
        metric = self._get_or_create(
            "histogram", name, labels, lambda c: Histogram(name, edges, labels=c)
        )
        if metric.buckets != tuple(float(b) for b in edges):
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{metric.buckets}, requested {edges}"
            )
        return metric

    def series(self, name: str, labels: Mapping[str, object] | None = None) -> Series:
        return self._get_or_create(
            "series", name, labels, lambda c: Series(name, labels=c)
        )

    # -- lookup ---------------------------------------------------------
    def get(self, name: str, labels: Mapping[str, object] | None = None) -> Metric | None:
        return self._metrics.get((name, _canon_labels(labels)))

    def value(self, name: str, labels: Mapping[str, object] | None = None) -> float:
        """Scalar value of a counter/gauge (raises for missing metrics)."""
        metric = self.get(name, labels)
        if metric is None:
            raise KeyError(f"no metric {name!r} with labels {_canon_labels(labels)}")
        if not isinstance(metric, (Counter, Gauge)):
            raise TypeError(f"metric {name!r} is a {metric.kind}, not scalar")
        return metric.value

    def names(self) -> list[str]:
        return sorted(self._kinds)

    def family(self, name: str) -> list[Metric]:
        """All labeled instances of one metric name, sorted by labels."""
        return [
            m
            for (n, _), m in sorted(self._metrics.items())
            if n == name
        ]

    def __iter__(self) -> Iterator[Metric]:
        return iter(m for _, m in sorted(self._metrics.items()))

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._kinds

    # -- export ---------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "metrics": [
                {
                    "name": m.name,
                    "kind": m.kind,
                    "labels": [list(pair) for pair in m.labels],
                    **m.snapshot(),
                }
                for m in self
            ]
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    def write_jsonl(self, out: str | Path | IO[str]) -> None:
        """One metric per line — the streaming-friendly export."""
        if isinstance(out, (str, Path)):
            path = Path(out)
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w") as fh:
                self.write_jsonl(fh)
            return
        for entry in self.to_dict()["metrics"]:
            out.write(json.dumps(entry, sort_keys=True) + "\n")

    @classmethod
    def from_dict(cls, state: dict) -> "MetricsRegistry":
        reg = cls()
        for entry in state["metrics"]:
            kind = entry["kind"]
            if kind not in _KINDS:
                raise ValueError(f"unknown metric kind {kind!r}")
            labels = tuple(tuple(pair) for pair in entry["labels"])
            if kind == "counter":
                metric = reg.counter(entry["name"], labels)
            elif kind == "gauge":
                metric = reg.gauge(entry["name"], labels)
            elif kind == "histogram":
                metric = reg.histogram(entry["name"], entry["buckets"], labels)
            else:
                metric = reg.series(entry["name"], labels)
            metric.restore(entry)
        return reg

    @classmethod
    def from_json(cls, text: str) -> "MetricsRegistry":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Metric-name manifest: the single source of truth for every ``repro.*``
# name the system emits. Call sites import :class:`M` instead of repeating
# string literals; the ``metric-name`` lint pass (``repro lint``) checks any
# remaining literal at a registry/tracer call site against this manifest, so
# a typo'd name fails lint instead of silently forking a counter.
# ---------------------------------------------------------------------------
class M:
    """Canonical ``repro.*`` metric names (see ``docs/OBSERVABILITY.md``)."""

    # training loop
    TRAIN_EPOCH_SECONDS = "repro.train.epoch_seconds"
    TRAIN_UPDATES = "repro.train.updates"
    TRAIN_EVAL_SECONDS = "repro.train.eval_seconds"
    TRAIN_LR = "repro.train.lr"
    TRAIN_RMSE = "repro.train.rmse"
    TRAIN_UPDATES_PER_SEC = "repro.train.updates_per_sec"
    TRAIN_UPDATES_PER_SEC_BY_EPOCH = "repro.train.updates_per_sec.by_epoch"
    TRAIN_EFFECTIVE_BANDWIDTH_GBS = "repro.train.effective_bandwidth_gbs"
    # kernel launches
    KERNEL_WAVES = "repro.kernel.waves"
    KERNEL_UPDATES = "repro.kernel.updates"
    KERNEL_WAVE_COLLISION_FRACTION = "repro.kernel.wave_collision_fraction"
    # schedulers and locks
    SCHED_LOCK_ATTEMPTS = "repro.sched.lock.attempts"
    SCHED_LOCK_WAITS = "repro.sched.lock.waits"
    SCHED_LOCK_ABORTS = "repro.sched.lock.aborts"
    SCHED_ROUNDS = "repro.sched.rounds"
    SCHED_BATCHES = "repro.sched.batches"
    SCHED_BATCH_UPDATES = "repro.sched.batch_updates"
    SCHED_CONFLICT_RATE = "repro.sched.conflict.rate"
    # modelled transfers and throughput
    TRANSFER_H2D_BYTES = "repro.transfer.h2d_bytes"
    TRANSFER_D2H_BYTES = "repro.transfer.d2h_bytes"
    TRANSFER_DISPATCHES = "repro.transfer.dispatches"
    PERF_UPDATES_PER_SEC = "repro.perf.updates_per_sec"
    PERF_EFFECTIVE_BANDWIDTH_GBS = "repro.perf.effective_bandwidth_gbs"
    # GPU simulator
    SIM_OCCUPANCY_FRACTION = "repro.sim.occupancy.fraction"
    SIM_STREAM_OVERLAP_FRACTION = "repro.sim.stream.overlap_fraction"
    SIM_STREAM_EXPOSED_TRANSFER_SECONDS = "repro.sim.stream.exposed_transfer_seconds"
    SIM_SCHED_WAIT_SECONDS = "repro.sim.sched.wait_seconds"
    SIM_SCHED_UTILIZATION = "repro.sim.sched.utilization"
    # experiment harness
    EXP_ELAPSED_SECONDS = "repro.exp.elapsed_seconds"
    # threaded executor (ThreadedHogwild)
    THREAD_WORKERS = "repro.thread.workers"
    THREAD_WORKER_UPDATES = "repro.thread.worker_updates"
    # out-of-core block staging (BlockStore / BlockPrefetcher)
    STAGE_BLOCKS_LOADED = "repro.stage.blocks_loaded"
    STAGE_BYTES_LOADED = "repro.stage.bytes_loaded"
    STAGE_LOAD_SECONDS = "repro.stage.load_seconds"
    STAGE_PREFETCH_WAIT_SECONDS = "repro.stage.prefetch_wait_seconds"
    # cross-worker phase attribution (StallReport, repro.obs.profiler)
    PROFILE_WALL_SECONDS = "repro.profile.wall_seconds"
    PROFILE_PHASE_SECONDS = "repro.profile.phase_seconds"
    PROFILE_PHASE_FRACTION = "repro.profile.phase_fraction"
    # kernel-backend registry + auto executor policy (repro.backends,
    # repro.parallel.policy)
    BACKEND_SELECTED = "repro.backend.selected"
    BACKEND_AVAILABLE = "repro.backend.available"
    BACKEND_FALLBACKS = "repro.backend.fallbacks"
    POLICY_EXECUTOR_SELECTED = "repro.policy.executor_selected"
    # resilience subsystem
    RESILIENCE_DEVICE_LOST = "repro.resilience.device_lost"
    RESILIENCE_BLOCKS_REBALANCED = "repro.resilience.blocks_rebalanced"
    RESILIENCE_RETRIED_BYTES = "repro.resilience.retried_bytes"
    RESILIENCE_LR_SCALE = "repro.resilience.lr_scale"
    RESILIENCE_DEMO_UPDATES = "repro.resilience.demo.updates"
    RESILIENCE_DEMO_BLOCKS = "repro.resilience.demo.blocks"
    RESILIENCE_DEMO_ROUNDS = "repro.resilience.demo.rounds"
    # runtime sanitizer (reprosan, repro.san)
    SAN_FINDINGS = "repro.san.findings"
    SAN_RACE_SAMPLES = "repro.san.race.samples"
    SAN_RACE_RACED = "repro.san.race.raced"
    SAN_RACE_RATE = "repro.san.race.rate"
    SAN_NUMERIC_CHECKS = "repro.san.numeric.checks"
    SAN_LIFECYCLE_LEAKS = "repro.san.lifecycle.leaks"


#: every declared metric name, for membership checks
METRIC_MANIFEST: frozenset[str] = frozenset(
    value
    for key, value in vars(M).items()
    if not key.startswith("_") and isinstance(value, str)
)

#: prefixes under which names are minted dynamically (event-keyed counters,
#: per-extra training series); anything else must be declared on :class:`M`
DYNAMIC_METRIC_PREFIXES: tuple[str, ...] = (
    "repro.train.extra.",
    "repro.resilience.",
)


def manifest_allows(name: str) -> bool:
    """True when ``name`` is declared or lives under a dynamic prefix."""
    return name in METRIC_MANIFEST or name.startswith(DYNAMIC_METRIC_PREFIXES)
