"""Hot-path benchmark: the NumPy wave loop against the compiled ``c`` kernel.

Measures what the compiled kernel buys on the batch-Hogwild! hot path (the
paper's Eq. 7 quantity, #updates/s) by racing the two kernel backends over
the same epochs of the same data:

* **numpy** — :class:`repro.core.hogwild.BatchHogwild` on the reference
  backend: the Python wave loop over the workspace's allocation-free wave
  kernel, the bit-exact anchor of every reproducibility claim;
* **c** — the same executor on the compiled backend: one GIL-free foreign
  call per epoch (:meth:`repro.backends.c_backend.CBackend.replay`).

Both executors draw one seed, so every epoch replays the same plan order
on each. The ``c`` kernel sums each dot product in another fixed order, so
the two are held to agree, not to match bit for bit: the document's
``agree`` is True when their final test RMSEs differ by at most
:data:`AGREE_RMSE`. Timing: shared runners show *multiplicative* noise (CPU
frequency drift), so the headline ``speedup`` (numpy over ``c``) is the
median of per-round paired ratios — each round times one epoch of both
back to back, alternating which goes first to cancel drift within the
round. The observation budgets (``profiler_overhead`` under 5%,
``sanitizer_overhead`` under 10%) are measured on the NumPy wave loop;
``sanitizer_overhead_c``, the same measurement on ``c``, is reported and
not gated.

Run::

    PYTHONPATH=src python benchmarks/bench_hot_path.py [--quick] [--out PATH]

Emits a ``BENCH_hot_path.json`` trajectory point (default at the repo
root, the canonical location CI archives) whose schema is pinned by
:func:`validate_result` and smoked by ``tests/test_perf_smoke.py``
(marker: ``perf``).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.backends import get_backend
from repro.core.hogwild import BatchHogwild
from repro.core.model import FactorModel
from repro.data.synthetic import DatasetSpec, make_synthetic
from repro.metrics.rmse import rmse
from repro.obs.ledger import PerfLedger, bench_meta
from repro.obs.tracer import THREAD_TID_BASE, WALL_PID, Tracer

# v2: +meta provenance stamp (bench_meta), +profiler_overhead budget gate
# v3: +sanitizer_overhead budget gate (reprosan --sanitize all)
# v4: numpy races c (speedup is numpy over c), +c_epoch_seconds,
#     +c_updates_per_sec, +sanitizer_overhead_c, +rmse_gap, +compiled_backend;
#     bit_identical -> agree; the pre-plan reference loop is gone
SCHEMA_VERSION = 4
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_hot_path.json"

#: Worker-side profiling (one ``compute`` span appended to a tracer per
#: epoch) must cost < 5% of a serial epoch — same budget discipline as
#: ``bench_obs_overhead.py``. Enforced by :func:`validate_result`.
MAX_PROFILER_OVERHEAD = 0.05
_PROF_MIN_ROUNDS = 6
_PROF_MAX_ROUNDS = 30
_PROF_CONFIDENT = 0.03

#: Full ``--sanitize all`` instrumentation (shadow access log + sampled
#: numeric checks + epoch-end model sweep) must cost < 10% of a serial
#: epoch of the NumPy wave loop. Enforced by :func:`validate_result`.
MAX_SANITIZER_OVERHEAD = 0.10
_SAN_CONFIDENT = 0.06

#: The two kernels agree when their final test RMSEs differ by no more
#: than this: their dot products sum in different orders, so the factors
#: drift apart by a few ulps, which must not move the model's quality.
AGREE_RMSE = 1e-4

#: The acceptance configuration: nnz >= 1e6, k = 32, s = 128 workers.
REFERENCE_CONFIG = {
    "m": 8_000, "n": 4_000, "k": 32, "nnz": 1_000_000,
    "workers": 128, "f": 256, "epochs": 5, "seed": 7,
}
#: Tiny variant for smoke tests — same code path, seconds not minutes.
QUICK_CONFIG = {
    "m": 800, "n": 400, "k": 16, "nnz": 40_000,
    "workers": 64, "f": 64, "epochs": 2, "seed": 7,
}


def _timed(fn, *args) -> tuple[float, int]:
    t0 = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - t0
    return seconds, result


def _profiler_overhead(sched, model, train) -> float:
    """Relative cost of per-epoch profiling on the serial hot path.

    Interleaves bare epochs with epochs wrapped in exactly the worker-side
    instrumentation the thread executor pays per epoch — one
    :meth:`Tracer.add_span` of a ``compute`` span on a thread lane — and
    compares the per-variant *minima* (the bench_obs_overhead.py
    methodology: additive noise cannot lower a minimum, so each variant's
    best shot converges to its true cost). Sampling is adaptive: stops
    early once the bound is comfortably met.
    """
    base = prof = float("inf")
    tracer = Tracer()

    def bare() -> float:
        t0 = time.perf_counter()
        sched.run_epoch(model, train, 0.05, 0.05)
        return time.perf_counter() - t0

    def profiled(epoch: int) -> float:
        t0 = time.perf_counter()
        n = sched.run_epoch(model, train, 0.05, 0.05)
        t1 = time.perf_counter()
        tracer.add_span(
            f"epoch {epoch} compute", t0 - tracer.origin, t1 - t0,
            pid=WALL_PID, tid=THREAD_TID_BASE, cat="compute",
            args={"epoch": epoch, "updates": n, "spawn": 0.0})
        return time.perf_counter() - t0

    bare(), profiled(0)  # warm both paths
    rounds = 0
    while rounds < _PROF_MAX_ROUNDS:
        base = min(base, bare())
        prof = min(prof, profiled(rounds + 1))
        rounds += 1
        if rounds >= _PROF_MIN_ROUNDS and prof / base - 1.0 < _PROF_CONFIDENT:
            break
    return prof / base - 1.0


def _sanitizer_overhead(sched, model, train) -> float:
    """Relative cost of ``--sanitize all`` on the serial hot path.

    Pairs each bare epoch with an adjacent epoch run under an ambient
    :class:`~repro.san.core.Sanitizer` in full mode — every wave's
    row/col coverage appended to the shadow access log, one residual
    check per ``sample_stride`` waves, and the deterministic epoch-end
    model sweep — and reports the **median of per-round ratios**.
    Unlike the ratio-of-minima used by :func:`_profiler_overhead`, a
    paired ratio compares two runs executed back to back, so sustained
    clock-speed drift (common on shared runners) hits both sides of
    each ratio equally instead of inflating whichever variant hit the
    slow window; alternating which variant goes first cancels the
    residual within-round bias, and the median rejects GC/interrupt
    outliers. The access log is cleared between sanitized rounds so the
    measurement stays allocation-bounded. Sampling is adaptive: stops
    early once the bound is comfortably met.
    """
    from repro.san import Sanitizer, activate_sanitizer

    san = Sanitizer("all")

    def bare() -> float:
        t0 = time.perf_counter()
        sched.run_epoch(model, train, 0.05, 0.05)
        return time.perf_counter() - t0

    def sanitized() -> float:
        san.race_log.clear()
        t0 = time.perf_counter()
        with activate_sanitizer(san):
            sched.run_epoch(model, train, 0.05, 0.05)
        return time.perf_counter() - t0

    def median(values: list[float]) -> float:
        ordered = sorted(values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])

    bare(), sanitized()  # warm both paths
    ratios: list[float] = []
    while len(ratios) < _PROF_MAX_ROUNDS:
        if len(ratios) % 2:
            instrumented, base = sanitized(), bare()
        else:
            base, instrumented = bare(), sanitized()
        ratios.append(instrumented / base)
        if len(ratios) >= _PROF_MIN_ROUNDS and (
            median(ratios) - 1.0 < _SAN_CONFIDENT
        ):
            break
    return median(ratios) - 1.0


def run_config(config: dict) -> dict:
    """Race both kernels over one dataset; return the result doc."""
    spec = DatasetSpec(
        name="hot-path", m=config["m"], n=config["n"], k=config["k"],
        n_train=config["nnz"], n_test=1_000,
    )
    problem = make_synthetic(spec, seed=1)
    train = problem.train

    compiled = get_backend("c")  # numpy, with a warning, without a compiler
    runs = {}  # backend -> (executor, model, epoch times)
    for backend in (None, compiled):
        runs[backend] = (
            BatchHogwild(workers=config["workers"], f=config["f"],
                         seed=config["seed"], backend=backend),
            FactorModel.initialize(spec.m, spec.n, spec.k, seed=0),
            [],
        )

    # one epoch of each per round, alternating who goes first; both
    # executors draw the same plan order every epoch
    for r in range(config["epochs"]):
        for backend in (None, compiled)[:: -1 if r % 2 else 1]:
            sched, model, times = runs[backend]
            seconds, updates = _timed(sched.run_epoch, model, train, 0.05,
                                      0.05)
            assert updates == train.nnz
            times.append(seconds)

    (sched, model, times), (sched_c, model_c, times_c) = runs.values()
    rmse_gap = abs(rmse(model.p, model.q, problem.test)
                   - rmse(model_c.p, model_c.q, problem.test))
    ratios = sorted(t / tc for t, tc in zip(times, times_c))
    speedup = ratios[len(ratios) // 2]  # paired-ratio median
    epoch_seconds = min(times)
    c_epoch_seconds = min(times_c)
    ws = sched.workspace
    plan_compiles = sched.plan_stats.compiles
    plan_repermutes = sched.plan_stats.repermutes
    # after the agreement capture: extra epochs only advance the plans
    profiler_overhead = _profiler_overhead(sched, model, train)
    sanitizer_overhead = _sanitizer_overhead(sched, model, train)
    sanitizer_overhead_c = _sanitizer_overhead(sched_c, model_c, train)
    return {
        "benchmark": "hot_path",
        "schema_version": SCHEMA_VERSION,
        "config": dict(config),
        "meta": bench_meta(),
        "compiled_backend": compiled.name.value,
        "metrics": {
            "epoch_seconds": epoch_seconds,
            "c_epoch_seconds": c_epoch_seconds,
            "speedup": speedup,
            "updates_per_sec": train.nnz / epoch_seconds,
            "c_updates_per_sec": train.nnz / c_epoch_seconds,
            "rmse_gap": rmse_gap,
            "profiler_overhead": profiler_overhead,
            "sanitizer_overhead": sanitizer_overhead,
            "sanitizer_overhead_c": sanitizer_overhead_c,
            "plan_compiles": plan_compiles,
            "plan_repermutes": plan_repermutes,
            "workspace_allocations": ws.allocations,
            "workspace_bytes": ws.nbytes,
        },
        "agree": rmse_gap <= AGREE_RMSE,
    }


def validate_result(doc: dict) -> None:
    """Schema check for a BENCH_hot_path.json document; raises ValueError."""
    def fail(msg: str):
        raise ValueError(f"invalid BENCH_hot_path document: {msg}")

    if not isinstance(doc, dict):
        fail("not a mapping")
    if doc.get("benchmark") != "hot_path":
        fail(f"benchmark is {doc.get('benchmark')!r}, expected 'hot_path'")
    if doc.get("schema_version") != SCHEMA_VERSION:
        fail(f"schema_version {doc.get('schema_version')!r} != {SCHEMA_VERSION}")
    config = doc.get("config")
    if not isinstance(config, dict):
        fail("config missing or not a mapping")
    for key in ("m", "n", "k", "nnz", "workers", "f", "epochs", "seed"):
        if not isinstance(config.get(key), int) or (
            key != "seed" and config[key] <= 0
        ):
            fail(f"config.{key} must be a positive int, got {config.get(key)!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail("metrics missing or not a mapping")
    for key in ("epoch_seconds", "c_epoch_seconds", "speedup",
                "updates_per_sec", "c_updates_per_sec"):
        value = metrics.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            fail(f"metrics.{key} must be a positive number, got {value!r}")
    gap = metrics.get("rmse_gap")
    if not isinstance(gap, (int, float)) or not gap >= 0:
        fail(f"metrics.rmse_gap must be a non-negative number, got {gap!r}")
    overhead = metrics.get("profiler_overhead")
    if not isinstance(overhead, (int, float)):
        fail(f"metrics.profiler_overhead must be a number, got {overhead!r}")
    if overhead >= MAX_PROFILER_OVERHEAD:
        fail(f"metrics.profiler_overhead {overhead:.1%} exceeds the "
             f"{MAX_PROFILER_OVERHEAD:.0%} budget")
    san_overhead = metrics.get("sanitizer_overhead")
    if not isinstance(san_overhead, (int, float)):
        fail(f"metrics.sanitizer_overhead must be a number, "
             f"got {san_overhead!r}")
    if san_overhead >= MAX_SANITIZER_OVERHEAD:
        fail(f"metrics.sanitizer_overhead {san_overhead:.1%} exceeds the "
             f"{MAX_SANITIZER_OVERHEAD:.0%} budget")
    if not isinstance(metrics.get("sanitizer_overhead_c"), (int, float)):
        fail(f"metrics.sanitizer_overhead_c must be a number, "
             f"got {metrics.get('sanitizer_overhead_c')!r}")
    for key in ("plan_compiles", "plan_repermutes",
                "workspace_allocations", "workspace_bytes"):
        value = metrics.get(key)
        if not isinstance(value, int) or value < 0:
            fail(f"metrics.{key} must be a non-negative int, got {value!r}")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        fail("meta missing or not a mapping")
    for key in ("git_sha", "timestamp_utc", "hostname", "cpu_count"):
        if key not in meta:
            fail(f"meta.{key} missing")
    if not isinstance(doc.get("compiled_backend"), str):
        fail("compiled_backend must be a backend name")
    if not isinstance(doc.get("agree"), bool):
        fail("agree must be a bool")


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny config (smoke-test scale) instead of the reference config",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help=f"output JSON path (default {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--ledger", type=Path, default=None,
        help="also append the result to this perf ledger JSONL "
             "(e.g. results/perf_ledger.jsonl)",
    )
    args = parser.parse_args(argv)

    config = QUICK_CONFIG if args.quick else REFERENCE_CONFIG
    doc = run_config(config)
    validate_result(doc)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    if args.ledger is not None:
        PerfLedger(args.ledger).append(doc)
        print(f"appended to ledger {args.ledger}")

    m = doc["metrics"]
    print(f"nnz={config['nnz']:,} k={config['k']} workers={config['workers']} "
          f"f={config['f']}")
    print(f"numpy       : {m['epoch_seconds'] * 1e3:9.2f} ms/epoch "
          f"({m['updates_per_sec'] / 1e6:.2f} M updates/s)")
    print(f"{doc['compiled_backend']:<12}: {m['c_epoch_seconds'] * 1e3:9.2f} "
          f"ms/epoch ({m['c_updates_per_sec'] / 1e6:.2f} M updates/s)")
    print(f"speedup     : {m['speedup']:.2f}x   agree: {doc['agree']} "
          f"(test RMSE gap {m['rmse_gap']:.2e}, limit {AGREE_RMSE:.0e})")
    print(f"profiler overhead: {m['profiler_overhead'] * 100:+.2f}% "
          f"(budget {MAX_PROFILER_OVERHEAD:.0%})")
    print(f"sanitizer overhead: {m['sanitizer_overhead'] * 100:+.2f}% "
          f"(budget {MAX_SANITIZER_OVERHEAD:.0%}); on "
          f"{doc['compiled_backend']}: "
          f"{m['sanitizer_overhead_c'] * 100:+.2f}% (not gated)")
    print(f"wrote {args.out}")
    return doc


if __name__ == "__main__":
    main()
