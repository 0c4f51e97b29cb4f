"""Executor benchmark: serial vs threaded vs multiprocess Hogwild.

Races the three CPU executors over the same synthetic problem and reports
epochs/sec for each, plus ``ooc_vs_procs`` — the paired-ratio median of
out-of-core over in-core procs epoch time (< 1 ⇒ streaming from the
BlockStore is *faster* than in-core; the pre-v2 name ``ooc_overhead`` was
a deprecated alias for one release and is gone in schema v3). v3 also
scores the **auto** policy: :func:`repro.parallel.policy.choose_executor`
is resolved against the ratios this run just measured, its pick is aliased
into the timing table, and ``auto_vs_serial`` records how the policy's
choice fares against serial — exactly 1.0 when it (correctly) stays
serial, ≥ the policy margin when it goes parallel, so the ≥ 1.0 acceptance
bar holds without special-casing the host. ``oversubscribed`` flags runs
with more workers than cores (their speedup ratios measure contention, not
capacity; perf-diff skips speedup gating on them). Each document also
embeds the procs executors' :class:`~repro.obs.profiler.StallReport` phase
attribution (``stall_report`` / ``stall_report_ooc``) and a ``meta``
provenance stamp (git SHA, UTC timestamp, hostname, cpu count) for the
perf ledger:

* **serial** — :class:`repro.core.hogwild.BatchHogwild`, the compiled-plan
  single-core path (the bench_hot_path.py subject);
* **threads** — :class:`repro.parallel.ThreadedHogwild`, per-thread
  replay of the same ``EpochPlan`` column shards over shared P/Q;
* **procs** — :class:`repro.parallel.ProcessHogwild`, shared-memory
  multiprocess batch-Hogwild! (each ``fit`` pays process spawn + shared
  segment setup, amortized over the run's epochs — recorded as measured);
* **procs (out-of-core)** — the same executor streaming mmap'd
  :class:`repro.data.BlockStore` shards through the double-buffered
  prefetcher instead of holding the ratings in shared memory.

Timing: shared runners show *multiplicative* noise, so each headline ratio
is the median of per-round paired ratios — every round times one full run
of each variant back to back, rotating which goes first to cancel drift
(the bench_hot_path.py methodology extended from pairs to a rotation).

Scaling expectations depend on physical cores: the emitted document records
``os.cpu_count()`` so a 1-core container's honest ~1x threads/procs ratios
are not mistaken for a regression. The cross-executor *correctness*
contract — ``ProcessHogwild(n_procs=1)`` bit-identical to the serial
compiled-plan loop — is asserted on a fixed tiny problem regardless of the
timing config and recorded as ``bit_identical``.

Run::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--quick] [--out PATH]

Emits a ``BENCH_parallel.json`` trajectory point (default at the repo root)
whose schema is pinned by :func:`validate_result` and smoked by
``tests/test_perf_smoke.py`` (marker: ``perf``).
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.hogwild import BatchHogwild
from repro.core.lr_schedule import NomadSchedule
from repro.core.model import FactorModel
from repro.data.blockstore import BlockStore
from repro.data.synthetic import DatasetSpec, make_synthetic
from repro.obs.ledger import PerfLedger, bench_meta
from repro.obs.profiler import StallReport
from repro.parallel import ProcessHogwild, ThreadedHogwild
from repro.parallel.policy import choose_executor
from repro.san import MODES, SanReport, activate_sanitizer, sanitizer_from_mode

# v2: +meta provenance stamp (bench_meta), +stall_report / stall_report_ooc
# phase attribution, ooc_overhead renamed ooc_vs_procs (deprecated alias
# kept one release)
# v3: +auto policy variant (auto_vs_serial + the auto decision block),
# +oversubscribed flag, deprecated ooc_overhead alias removed
SCHEMA_VERSION = 3
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

#: The acceptance configuration: nnz >= 1e6, k = 32, s = 128 workers.
REFERENCE_CONFIG = {
    "m": 8_000, "n": 4_000, "k": 32, "nnz": 1_000_000,
    "workers": 128, "f": 256, "epochs": 3, "rounds": 3,
    "n_threads": 4, "n_procs": 4, "grid": 4, "seed": 7,
}
#: Tiny variant for smoke tests — same code paths, seconds not minutes.
QUICK_CONFIG = {
    "m": 800, "n": 400, "k": 16, "nnz": 40_000,
    "workers": 64, "f": 64, "epochs": 2, "rounds": 2,
    "n_threads": 2, "n_procs": 2, "grid": 2, "seed": 7,
}

#: Variant keys in canonical order; ``metrics.{key}_epoch_seconds`` et al.
VARIANTS = ("serial", "threads", "procs", "procs_ooc")


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _run_serial(config: dict, train) -> None:
    """``epochs`` epochs of the compiled-plan serial executor."""
    sched = BatchHogwild(
        workers=config["workers"], f=config["f"], seed=config["seed"]
    )
    model = FactorModel.initialize(
        config["m"], config["n"], config["k"], seed=config["seed"]
    )
    schedule = NomadSchedule()
    for epoch in range(config["epochs"]):
        sched.run_epoch(model, train, schedule(epoch), 0.05)


def _run_threads(config: dict, train) -> None:
    est = ThreadedHogwild(
        k=config["k"], n_threads=config["n_threads"], lam=0.05,
        seed=config["seed"], workers=config["workers"], f=config["f"],
    )
    est.fit(train, epochs=config["epochs"])


def _run_procs(config: dict, train, store: BlockStore | None = None) -> ProcessHogwild:
    est = ProcessHogwild(
        k=config["k"], n_procs=config["n_procs"], lam=0.05,
        seed=config["seed"], workers=config["workers"], f=config["f"],
        store=store,
    )
    est.fit(train if store is None else None, epochs=config["epochs"])
    return est


def _sanitized_probe(config: dict, mode: str) -> dict:
    """One sanitized :class:`ProcessHogwild` fit over the bench dataset.

    Runs outside the timing loops (the sanitizer's cost is gated
    separately, by ``bench_hot_path``); the report — findings, benign
    race rate, lifecycle pairing — is embedded as the result doc's
    optional ``sanitizer`` block, where :func:`validate_result` fails
    the run on any finding.
    """
    spec = DatasetSpec(
        name="parallel-san", m=config["m"], n=config["n"], k=config["k"],
        n_train=config["nnz"], n_test=1_000,
    )
    train = make_synthetic(spec, seed=1).train
    san = sanitizer_from_mode(mode)
    est = ProcessHogwild(
        k=config["k"], n_procs=config["n_procs"], lam=0.05,
        seed=config["seed"], workers=config["workers"], f=config["f"],
    )
    with activate_sanitizer(san):
        est.fit(train, epochs=config["epochs"])
    return san.finalize().as_dict()


def _bit_identity_check() -> bool:
    """``ProcessHogwild(n_procs=1)`` vs the serial compiled-plan loop.

    Fixed tiny problem (independent of the timing config): same seed, same
    schedule, two epochs — the single-shard process path must reproduce the
    serial executor's factors bit for bit.
    """
    spec = DatasetSpec(name="bitcheck", m=120, n=80, k=8,
                       n_train=4_000, n_test=400)
    train = make_synthetic(spec, seed=3).train
    epochs, seed, workers, f = 2, 11, 32, 16

    ref = FactorModel.initialize(spec.m, spec.n, spec.k, seed=seed)
    sched = BatchHogwild(workers=workers, f=f, seed=seed)
    schedule = NomadSchedule()
    for epoch in range(epochs):
        sched.run_epoch(ref, train, schedule(epoch), 0.05)

    est = ProcessHogwild(k=spec.k, n_procs=1, lam=0.05, seed=seed,
                         workers=workers, f=f)
    est.fit(train, epochs=epochs)
    return (
        est.model.p.tobytes() == ref.p.tobytes()
        and est.model.q.tobytes() == ref.q.tobytes()
    )


def run_config(config: dict) -> dict:
    """Race all executor variants over one dataset; return the result doc."""
    spec = DatasetSpec(
        name="parallel", m=config["m"], n=config["n"], k=config["k"],
        n_train=config["nnz"], n_test=1_000,
    )
    train = make_synthetic(spec, seed=1).train

    times: dict[str, list[float]] = {key: [] for key in VARIANTS}
    with tempfile.TemporaryDirectory(prefix="bench-parallel-") as tmp:
        store = BlockStore.create(
            train, config["grid"], config["grid"], tmp,
            seed=config["seed"],
        )
        # keep the last fitted procs estimators: their StallReports (phase
        # accounting is always on, spooling only under a tracer — no timing
        # skew) become the doc's stall_report / stall_report_ooc
        fitted: dict[str, ProcessHogwild] = {}
        runs = [
            ("serial", lambda: _run_serial(config, train)),
            ("threads", lambda: _run_threads(config, train)),
            ("procs",
             lambda: fitted.__setitem__("procs", _run_procs(config, train))),
            ("procs_ooc",
             lambda: fitted.__setitem__(
                 "procs_ooc", _run_procs(config, train, store=store))),
        ]
        for r in range(config["rounds"]):
            # rotate who goes first so frequency drift cancels in the medians
            rotated = runs[r % len(runs):] + runs[:r % len(runs)]
            for key, fn in rotated:
                times[key].append(_timed(fn))

    epochs = config["epochs"]

    def ratio(num: str, den: str) -> float:
        pairs = sorted(n / d for n, d in zip(times[num], times[den]))
        return pairs[len(pairs) // 2]  # paired-ratio median

    metrics: dict[str, float | int] = {}
    for key in VARIANTS:
        best = min(times[key])
        metrics[f"{key}_epoch_seconds"] = best / epochs
        metrics[f"{key}_updates_per_sec"] = train.nnz * epochs / best
    metrics["threads_vs_serial"] = ratio("serial", "threads")
    metrics["procs_vs_serial"] = ratio("serial", "procs")
    # t(procs_ooc) / t(procs): < 1 means the out-of-core pipeline is
    # *faster* than in-core procs, > 1 means staging costs wall time
    metrics["ooc_vs_procs"] = ratio("procs_ooc", "procs")
    cpu_count = os.cpu_count() or 1
    # auto variant: resolve the policy against the ratios just measured on
    # this host (the strongest evidence there is) and alias its pick into
    # the timing table — auto_vs_serial is exactly 1.0 when the policy
    # (correctly) stays serial, >= the policy margin when it goes parallel
    choice = choose_executor(
        config["nnz"], config["k"], cpu_count=cpu_count,
        evidence={
            "threads_vs_serial": metrics["threads_vs_serial"],
            "procs_vs_serial": metrics["procs_vs_serial"],
            "n_threads": config["n_threads"],
            "n_procs": config["n_procs"],
        },
    )
    times["auto"] = times[choice.executor]
    metrics["auto_vs_serial"] = ratio("serial", "auto")
    # more workers than cores: the speedup ratios above measure contention,
    # not capacity — perf-diff skips speedup gating on flagged runs
    metrics["oversubscribed"] = (
        max(config["n_threads"], config["n_procs"]) > cpu_count
    )
    metrics["cpu_count"] = cpu_count
    return {
        "benchmark": "parallel",
        "schema_version": SCHEMA_VERSION,
        "config": dict(config),
        "meta": bench_meta(),
        "metrics": metrics,
        "auto": choice.as_dict(),
        "stall_report": fitted["procs"].stall_report.as_dict(),
        "stall_report_ooc": fitted["procs_ooc"].stall_report.as_dict(),
        "bit_identical": _bit_identity_check(),
    }


def validate_result(doc: dict) -> None:
    """Schema check for a BENCH_parallel.json document; raises ValueError."""
    def fail(msg: str):
        raise ValueError(f"invalid BENCH_parallel document: {msg}")

    if not isinstance(doc, dict):
        fail("not a mapping")
    if doc.get("benchmark") != "parallel":
        fail(f"benchmark is {doc.get('benchmark')!r}, expected 'parallel'")
    if doc.get("schema_version") != SCHEMA_VERSION:
        fail(f"schema_version {doc.get('schema_version')!r} != {SCHEMA_VERSION}")
    config = doc.get("config")
    if not isinstance(config, dict):
        fail("config missing or not a mapping")
    for key in ("m", "n", "k", "nnz", "workers", "f", "epochs", "rounds",
                "n_threads", "n_procs", "grid", "seed"):
        if not isinstance(config.get(key), int) or (
            key != "seed" and config[key] <= 0
        ):
            fail(f"config.{key} must be a positive int, got {config.get(key)!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail("metrics missing or not a mapping")
    positive = [f"{key}_epoch_seconds" for key in VARIANTS]
    positive += [f"{key}_updates_per_sec" for key in VARIANTS]
    positive += ["threads_vs_serial", "procs_vs_serial", "ooc_vs_procs",
                 "auto_vs_serial"]
    for key in positive:
        value = metrics.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or value <= 0:
            fail(f"metrics.{key} must be a positive number, got {value!r}")
    if "ooc_overhead" in metrics:
        fail("metrics.ooc_overhead was removed in schema v3 "
             "(use metrics.ooc_vs_procs)")
    # the auto acceptance bar: never lose to serial. Exactly 1.0 when the
    # policy stays serial (auto aliases the serial timings), >= the policy
    # margin when it picked a parallel executor on measured evidence.
    if metrics["auto_vs_serial"] < 1.0 - 1e-9:
        fail(f"metrics.auto_vs_serial = {metrics['auto_vs_serial']!r} < 1.0: "
             "the auto policy lost to serial")
    if not isinstance(metrics.get("oversubscribed"), bool):
        fail("metrics.oversubscribed must be a bool")
    cpus = metrics.get("cpu_count")
    if not isinstance(cpus, int) or cpus <= 0:
        fail(f"metrics.cpu_count must be a positive int, got {cpus!r}")
    auto = doc.get("auto")
    if not isinstance(auto, dict):
        fail("auto decision block missing or not a mapping")
    if auto.get("executor") not in ("serial", "threads", "procs"):
        fail(f"auto.executor {auto.get('executor')!r} unknown")
    if not isinstance(auto.get("n_workers"), int) or auto["n_workers"] <= 0:
        fail(f"auto.n_workers must be a positive int, got {auto.get('n_workers')!r}")
    for key in ("backend", "reason"):
        if not isinstance(auto.get(key), str) or not auto[key]:
            fail(f"auto.{key} must be a non-empty string")
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        fail("meta missing or not a mapping")
    for key in ("git_sha", "timestamp_utc", "hostname", "cpu_count"):
        if key not in meta:
            fail(f"meta.{key} missing")
    for key in ("stall_report", "stall_report_ooc"):
        report = doc.get(key)
        if not isinstance(report, dict):
            fail(f"{key} missing or not a mapping")
        try:
            StallReport.validate_dict(report)
        except ValueError as exc:
            fail(f"{key}: {exc}")
    ooc = doc["stall_report_ooc"]
    if doc["stall_report"].get("executor") != "procs":
        fail("stall_report.executor must be 'procs'")
    if ooc.get("executor") != "procs_ooc":
        fail("stall_report_ooc.executor must be 'procs_ooc'")
    if not isinstance(doc.get("bit_identical"), bool):
        fail("bit_identical must be a bool")
    if "sanitizer" in doc:  # optional block, present under --sanitize
        try:
            SanReport.validate_dict(doc["sanitizer"])
        except ValueError as exc:
            fail(f"sanitizer: {exc}")
        if not doc["sanitizer"]["clean"]:
            found = doc["sanitizer"]["findings"]
            fail(f"sanitizer reported {len(found)} finding(s): "
                 + "; ".join(f["message"] for f in found[:3]))


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
    parser.add_argument(
        "--sanitize", choices=MODES, default="off",
        help="also run one reprosan-instrumented procs fit and embed its "
             "report; any finding fails validation (default: off)",
    )
    args = parser.parse_args(argv)

    config = QUICK_CONFIG if args.quick else REFERENCE_CONFIG
    doc = run_config(config)
    if args.sanitize != "off":
        doc["sanitizer"] = _sanitized_probe(config, args.sanitize)
    validate_result(doc)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    if args.ledger is not None:
        PerfLedger(args.ledger).append(doc)
        print(f"appended to ledger {args.ledger}")

    m = doc["metrics"]
    print(f"nnz={config['nnz']:,} k={config['k']} "
          f"threads={config['n_threads']} procs={config['n_procs']} "
          f"cpus={m['cpu_count']}")
    for key in VARIANTS:
        print(f"{key:11s}: {m[f'{key}_epoch_seconds'] * 1e3:9.2f} ms/epoch "
              f"({m[f'{key}_updates_per_sec'] / 1e6:.2f} M updates/s)")
    print(f"threads vs serial: {m['threads_vs_serial']:.2f}x   "
          f"procs vs serial: {m['procs_vs_serial']:.2f}x   "
          f"out-of-core vs procs: {m['ooc_vs_procs']:.2f}x (<1 means ooc faster)")
    auto = doc["auto"]
    print(f"auto policy: {auto['executor']} / {auto['backend']} -> "
          f"{m['auto_vs_serial']:.2f}x vs serial ({auto['reason']})")
    if m["oversubscribed"]:
        print("WARNING: oversubscribed (workers > cores) — speedup ratios "
              "measure contention, not capacity; perf-diff will not gate "
              "on them")
    print(f"n_procs=1 bit-identical to serial: {doc['bit_identical']}")
    if "sanitizer" in doc:
        s = doc["sanitizer"]
        rate = s["race"]["race_rate"]
        print(f"sanitizer ({s['mode']}): clean={s['clean']} "
              f"findings={len(s['findings'])} benign race rate={rate:.2%}")
    agg = doc["stall_report"]["aggregate"]["fractions"]
    print("procs stall attribution: " + "  ".join(
        f"{phase}={agg[phase]:.1%}" for phase in doc["stall_report"]["phases"]
    ))
    print(f"wrote {args.out}")
    return doc


if __name__ == "__main__":
    main()
