"""Run one ``cumf-sgd train`` in this process, timing each layer it calls.

Usage::

    python perfbench/layers.py OUT.json train DATASET [train options...]

The benchmark launches this script in place of ``python -m
repro.experiments.cli`` when it measures layers. It wraps the program's
layer entry points (data generation, split, executor/backend resolution,
model init, plan compile/bind, the epoch kernel, eval, save) with spans,
runs the real CLI ``main`` on the given arguments, and writes to OUT.json
the self time of every layer on the training's critical path:

* spans nest per thread; a span's self time is its duration minus its
  children's;
* a parallel epoch (the main thread waiting on worker threads) is charged
  to the layers of the worker that finished last, the one that set the
  epoch's length, and its remainder (dispatch, join, shard gather) to
  ``other``;
* ``other`` also takes whatever the spans leave uncovered, so the layers
  add up to this process's wall time from entry to exit.

``entry``/``end`` are ``time.perf_counter()`` readings (CLOCK_MONOTONIC,
shared across processes on Linux), so the parent can charge interpreter
start-up and exit to their own layers.
"""

import time

ENTRY = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import defaultdict  # noqa: E402

#: the critical-path layers, in pipeline order; ``startup`` and ``exit``
#: are measured by the parent around this process
LAYERS = ("import", "data", "split", "resolve", "init", "plan", "kernel",
          "eval", "save", "other")

#: a main-thread span whose time belongs to the worker threads it waits on
PARALLEL = "parallel"


class SpanRecorder:
    """Thread-aware nested spans around wrapped callables."""

    def __init__(self) -> None:
        #: (layer, thread id, start, end, self seconds)
        self.spans: list[tuple[str, int, float, float, float]] = []
        self._local = threading.local()

    def timed(self, fn, layer: str):
        local = self._local
        spans = self.spans

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                spans.append((layer, threading.get_ident(), t0, t1,
                              t1 - t0 - children[0]))

        return wrapper

    def wrap(self, owner, attr: str, layer: str) -> None:
        """Replace ``owner.attr`` (function, method or classmethod)."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.timed(raw.__func__, layer)))
        else:
            setattr(owner, attr, self.timed(raw, layer))

    def critical_path(self, main: int) -> dict[str, float]:
        """Self seconds per layer along the main thread's critical path."""
        totals: dict[str, float] = defaultdict(float)
        for layer, tid, t0, t1, self_s in self.spans:
            if tid != main:
                continue
            if layer != PARALLEL:
                totals[layer] += self_s
                continue
            by_worker: dict[int, list] = defaultdict(list)
            for span in self.spans:
                if span[1] != main and t0 <= span[2] and span[3] <= t1:
                    by_worker[span[1]].append(span)
            charged = 0.0
            if by_worker:
                last = max(by_worker.values(), key=lambda s: max(x[3] for x in s))
                for w_layer, _, _, _, w_self in last:
                    totals[w_layer] += w_self
                    charged += w_self
            totals["other"] += self_s - charged
        return totals


def install(rec: SpanRecorder) -> None:
    """Wrap the layer entry points that ``cumf-sgd train`` reaches."""
    import repro.core.checkpoint as checkpoint
    import repro.core.trainer as trainer
    import repro.data.synthetic as synthetic
    import repro.experiments.cli as cli
    import repro.parallel.threads as threads
    from repro.core.hogwild import BatchHogwild
    from repro.core.kernels import WaveWorkspace
    from repro.core.model import FactorModel
    from repro.sched.plan import EpochPlan, SerialPlan

    rec.wrap(synthetic, "make_synthetic", "data")
    rec.wrap(synthetic, "train_test_split", "split")
    rec.wrap(cli, "_resolve_executor", "resolve")
    rec.wrap(FactorModel, "initialize", "init")
    rec.wrap(EpochPlan, "__init__", "plan")
    rec.wrap(EpochPlan, "repermute", "plan")
    rec.wrap(SerialPlan, "compile", "plan")
    rec.wrap(WaveWorkspace, "bind_plan", "plan")
    rec.wrap(BatchHogwild, "run_epoch", "kernel")
    rec.wrap(threads.ThreadedHogwild, "_epoch", PARALLEL)
    rec.wrap(threads, "_replay_shard", "kernel")
    rec.wrap(trainer, "rmse", "eval")
    rec.wrap(threads, "rmse", "eval")
    rec.wrap(checkpoint, "save_model", "save")


def load_program() -> None:
    """Import everything ``train`` runs, including the CLI's lazy imports."""
    import repro.core.checkpoint  # noqa: F401
    import repro.core.trainer  # noqa: F401
    import repro.data.synthetic  # noqa: F401
    import repro.experiments.cli  # noqa: F401
    import repro.metrics.throughput  # noqa: F401
    import repro.parallel.policy  # noqa: F401
    import repro.parallel.threads  # noqa: F401


def main(argv: list[str]) -> int:
    out_path, train_argv = argv[0], argv[1:]
    main_tid = threading.get_ident()
    rec = SpanRecorder()
    rec.timed(load_program, "import")()
    install(rec)
    from repro.experiments.cli import main as cli_main

    rc = rec.timed(cli_main, "other")(train_argv)
    end = time.perf_counter()
    layers = rec.critical_path(main_tid)
    layers["other"] += (end - ENTRY) - sum(layers.values())
    with open(out_path, "w") as fh:
        json.dump({
            "entry": ENTRY,
            "end": end,
            "layers": {name: layers.get(name, 0.0) for name in LAYERS},
            "plan_calls": sum(span[0] == "plan" for span in rec.spans),
        }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
