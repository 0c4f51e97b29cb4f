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

import importlib

#: public name -> the submodule defining it; imported on first access
#: (PEP 562), so a thread or serial training never loads the process
#: executor and its shared-memory machinery
_EXPORTS = {
    "ProcessHogwild": "procs",
    "ThreadedHogwild": "threads",
    "ThreadedWavefront": "wavefront_threads",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
