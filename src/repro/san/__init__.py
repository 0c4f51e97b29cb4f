"""reprosan: runtime race / numeric / lifecycle sanitizer for the executors.

reprolint (:mod:`repro.lint`) proves the *compiled schedules* conflict-free
statically; reprosan verifies the *execution*. When activated (ambiently,
like the tracer), the Hogwild executors route their wave kernels through a
thin instrumented wrapper that records per-worker shadow access logs and
runs sampled numeric checks; a post-fit checker then detects within-wave
write overlaps, cross-shard ownership violations, non-finite factors, and
leaked BlockStore mmaps — and quantifies the benign
cross-worker race rate the HOGWILD! argument tolerates.

Usage::

    from repro.san import Sanitizer, activate_sanitizer

    san = Sanitizer("all")          # "races" | "numeric" | "all"
    with activate_sanitizer(san):
        estimator.fit(train, epochs=5)
    report = san.finalize()         # raises nothing; findings listed
    print(report.format())

``cumf-sgd train … --sanitize all`` and ``benchmarks/bench_parallel.py
--sanitize`` wire this end to end. Overhead is gated (< 10%) by
``benchmarks/bench_hot_path.py``.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "core": ("MODES", "Sanitizer", "activate_sanitizer", "active_sanitizer",
             "instrument_kernel", "sanitizer_from_mode"),
    "errors": ("SanFinding", "SanitizerError"),
    "races": ("AccessLog", "analyze_log"),
    "lifecycle": ("LifecycleTracker",),
    "numeric": ("NumericSentry",),
    "report": ("SanReport",),
})
