"""Real shared-memory parallel executors.

The rest of :mod:`repro.core` *simulates* concurrency deterministically
(waves with explicit race semantics). This package runs SGD on **actual
concurrency** — OS threads racing over shared NumPy arrays, and OS
processes racing over :mod:`multiprocessing.shared_memory` segments —
genuine Hogwild!, useful to validate that the simulated semantics match
reality and as multi-core executors in their own right (the compiled
``c`` kernel releases the GIL for a whole plan shard; processes sidestep
it entirely).
"""

from repro.parallel.procs import ProcessHogwild
from repro.parallel.threads import ThreadedHogwild
from repro.parallel.wavefront_threads import ThreadedWavefront

__all__ = ["ProcessHogwild", "ThreadedHogwild", "ThreadedWavefront"]
