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

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "registry": ("MetricsRegistry", "Counter", "Gauge", "Histogram",
                 "Series"),
    "tracer": ("Tracer",),
    "collector": ("TelemetryCollector",),
    "trace_schema": ("TraceValidationError", "validate_chrome_trace"),
    "hooks": ("TrainerHooks", "NullHooks", "NULL_HOOKS", "RecordingHooks",
              "EpochEvent", "BatchEvent", "KernelEvent", "TransferEvent",
              "resolve_hooks", "emit_plan_events"),
    "context": ("activate", "active_hooks", "active_registry",
                "active_tracer"),
    "profiler": ("PHASES", "StallReport", "WorkerPhases"),
    "ledger": ("PerfLedger", "bench_meta", "perf_diff"),
})
