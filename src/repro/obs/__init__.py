"""Observability subsystem: metrics registry, trace export, profiling hooks.

Three layers, usable independently:

* :mod:`repro.obs.registry` — :class:`MetricsRegistry` with counters,
  gauges, fixed-bucket histograms, and labeled series; JSON/JSONL export;
* :mod:`repro.obs.tracer` — span :class:`Tracer` emitting Chrome
  ``trace_event`` JSON (open in ``chrome://tracing`` or Perfetto);
* :mod:`repro.obs.hooks` — the ``on_epoch`` / ``on_batch`` / ``on_kernel``
  / ``on_transfer`` callback protocol threaded through
  :class:`repro.core.trainer.CuMFSGD`, the schedulers, and the GPU
  simulator, with a zero-cost null default.

:class:`TelemetryCollector` ties them together; :func:`activate` installs a
collector ambiently so un-instrumented call stacks (the experiment registry)
pick it up. See ``docs/OBSERVABILITY.md`` for the metric naming scheme and a
Perfetto walkthrough, and the ``cumf-sgd trace`` / ``cumf-sgd metrics-dump``
CLI subcommands for the artifact path.
"""

from repro.obs.collector import TelemetryCollector
from repro.obs.context import (
    activate,
    active_collector,
    active_hooks,
    active_registry,
    active_tracer,
)
from repro.obs.hooks import (
    NULL_HOOKS,
    BatchEvent,
    CompositeHooks,
    EpochEvent,
    KernelEvent,
    NullHooks,
    RecordingHooks,
    TrainerHooks,
    TransferEvent,
    resolve_hooks,
    resolve_kernel_stride,
)
from repro.obs.ledger import PerfLedger, bench_meta, perf_diff
from repro.obs.profiler import PHASES, StallReport, WorkerPhases
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry, Series
from repro.obs.trace_schema import TraceValidationError, validate_chrome_trace
from repro.obs.tracer import Tracer

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "Tracer",
    "TelemetryCollector",
    "TraceValidationError",
    "validate_chrome_trace",
    "TrainerHooks",
    "NullHooks",
    "NULL_HOOKS",
    "CompositeHooks",
    "RecordingHooks",
    "EpochEvent",
    "BatchEvent",
    "KernelEvent",
    "TransferEvent",
    "resolve_hooks",
    "resolve_kernel_stride",
    "activate",
    "active_collector",
    "active_hooks",
    "active_registry",
    "active_tracer",
    "PHASES",
    "StallReport",
    "WorkerPhases",
    "PerfLedger",
    "bench_meta",
    "perf_diff",
]
