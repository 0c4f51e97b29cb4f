"""Real shared-memory parallel executors.

The rest of :mod:`repro.core` *simulates* concurrency deterministically
(waves with explicit race semantics). This package runs SGD on **actual
concurrency** — OS threads racing over shared NumPy arrays — genuine
Hogwild!, useful to validate that the simulated semantics match reality
and as multi-core executors in their own right (the compiled ``c`` kernel
releases the GIL for a whole plan shard or out-of-core block).
:func:`~repro.parallel.dispatch.run_threads` starts every worker thread:
these executors' and the wavefront scheduler's
(:class:`repro.core.wavefront.WavefrontScheduler`).
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "threads": ("ThreadedHogwild",),
})
