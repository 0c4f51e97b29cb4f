"""Command-line entry point.

Subcommands::

    cumf-sgd list                         # registered paper artifacts
    cumf-sgd run fig9 [--full] [--csv F]  # reproduce one table/figure
    cumf-sgd all [--full] [--outdir D]    # reproduce everything
    cumf-sgd train netflix-syn --epochs 20 --scheme wavefront
    cumf-sgd train netflix-syn --executor auto            # policy picks (default)
    cumf-sgd train netflix-syn --executor threads --procs 4   # Hogwild! threads
    cumf-sgd train netflix-syn --scheme wavefront --executor threads --procs 2
    cumf-sgd train netflix-syn --executor threads --half --fault-plan plan.json
    cumf-sgd train netflix-syn --backend c                # fused C kernel (local cc)
    cumf-sgd train netflix-syn --out-of-core              # stream blocks from disk
    cumf-sgd plan hugewiki --gpu pascal --devices 2
    cumf-sgd throughput --gpu maxwell --workers 768
    cumf-sgd trace fig07 --out results/fig07_trace.json       # Chrome trace
    cumf-sgd train netflix-syn --executor threads --trace results/train_trace.json
    cumf-sgd metrics-dump fig10 --out results/fig10_metrics.json
    cumf-sgd perf-diff                                    # gate BENCH_*.json
    cumf-sgd perf-diff --against results/perf_ledger.jsonl --record
    cumf-sgd fault-demo --seed 0 --out results/fault_metrics.json
    cumf-sgd train netflix-syn --scheme multi_device --fault-plan plan.json
    cumf-sgd lint [paths...] [--format json]   # reprolint static analysis

``fault-demo`` replays the documented kill-one-GPU-mid-epoch scenario
(device 2 of 4 dies after its third block) and prints the
``repro.resilience.*`` counters; the same ``--seed`` always writes a
byte-identical metrics dump. ``train --fault-plan`` runs training under an
injected :class:`repro.resilience.faults.FaultPlan` loaded from JSON, with
checkpoint/rollback recovery via
:class:`repro.resilience.trainer.ResilientTrainer`, on any executor; only
``--scheme multi_device`` injects faults (elsewhere a non-empty plan exits 2).

``train`` builds one :class:`repro.core.trainer.CuMFSGD` for every
executor: ``--executor serial`` is one thread, ``--executor threads``
sets ``n_threads`` to ``--procs``, and ``--out-of-core`` hands it a
temporary :class:`repro.data.blockstore.BlockStore`.

``train --trace PATH`` runs the training itself under telemetry and writes
one merged multi-lane Chrome trace: the trainer's wall lane plus one
per-thread tid row per worker of ``--executor threads``, and prints the
:class:`repro.obs.profiler.StallReport` phase table.
``perf-diff`` compares fresh ``BENCH_*.json`` documents against the perf
ledger (``results/perf_ledger.jsonl``) and exits 1 on a >15% regression in
the gated throughput metrics; a missing baseline warns and exits 0 (the
run can seed the ledger via ``--record``).

``trace`` and ``metrics-dump`` run an experiment under the
:mod:`repro.obs` telemetry collector (plus a standard instrumented probe,
so every metric family is populated even for analytic-only experiments) and
write the artifacts to ``results/``. ``run``, ``trace`` and
``metrics-dump`` normalise experiment names, so ``fig07`` and ``fig7`` both
work; an unknown or ambiguous name exits 2 with the known ids.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

__all__ = ["main", "resolve_experiment_id"]

_GPU_CHOICES = ("maxwell", "pascal")

#: the environment variables OpenBLAS reads its thread count from
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")


def _gpu_spec(name: str):
    from repro.gpusim.specs import MAXWELL_TITAN_X, PASCAL_P100

    return {"maxwell": MAXWELL_TITAN_X, "pascal": PASCAL_P100}[name]


def resolve_experiment_id(name: str) -> str:
    """Map user spellings onto registry ids (``fig07`` -> ``fig7`` -> ``fig5b``).

    Resolution order: exact match; zero-stripped figure/table number; unique
    prefix match. Raises KeyError with the known ids otherwise.
    """
    from repro.experiments import REGISTRY

    candidate = name.strip().lower()
    if candidate in REGISTRY:
        return candidate
    import re

    m = re.fullmatch(r"(fig|figure|table)0*(\d+)([a-z]?)", candidate)
    if m:
        prefix = "table" if m.group(1) == "table" else "fig"
        candidate = f"{prefix}{int(m.group(2))}{m.group(3)}"
        if candidate in REGISTRY:
            return candidate
    prefixed = [exp_id for exp_id in sorted(REGISTRY) if exp_id.startswith(candidate)]
    if len(prefixed) == 1:
        return prefixed[0]
    raise KeyError(
        f"unknown experiment {name!r}"
        + (f" (ambiguous: {prefixed})" if prefixed else "")
        + f"; known: {sorted(REGISTRY)}"
    )


def _experiment_arg(name: str) -> str:
    """``run``'s argument type: the resolved id, else exit 2 with the ids."""
    try:
        return resolve_experiment_id(name)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cumf-sgd",
        description="Reproduce CuMF_SGD (HPDC'17): experiments, training, planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiments")

    run_p = sub.add_parser("run", help="run one experiment")
    # the registry loads the experiment modules only when ``run`` resolves
    # an id, so building the parser imports none of them
    run_p.add_argument("experiment", type=_experiment_arg,
                       help="experiment id (fig07, fig7, table4…; "
                       "'cumf-sgd list' shows them)")
    run_p.add_argument("--full", action="store_true", help="full-scale numeric runs")
    run_p.add_argument("--csv", type=Path, help="also write rows as CSV")

    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument("--full", action="store_true")
    all_p.add_argument("--outdir", type=Path, help="write per-experiment .txt files")

    train_p = sub.add_parser("train", help="train on a registered synthetic data set")
    train_p.add_argument("dataset", help="scaled data set name (e.g. netflix-syn)")
    train_p.add_argument("--scheme", default="batch_hogwild",
                         choices=("batch_hogwild", "wavefront", "multi_device"))
    train_p.add_argument("--executor", default="auto",
                         choices=("auto", "serial", "threads"),
                         help="auto (default): pick per host/problem via "
                         "repro.parallel.policy (serial unless measured "
                         "evidence says threads win); serial: one "
                         "thread (--scheme applies); threads: --procs "
                         "threads (batch_hogwild or wavefront)")
    train_p.add_argument("--backend", default="auto",
                         choices=("auto", "numpy", "c"),
                         help="kernel backend (repro.backends registry) "
                         "of every scheme; auto picks the fastest verified "
                         "backend the problem size amortizes, numpy is the "
                         "bit-exact reference")
    train_p.add_argument("--procs", type=int, default=None,
                         help="worker threads for --executor threads "
                         "(default: the auto-policy's choice, else 4)")
    train_p.add_argument("--out-of-core", action="store_true",
                         help="stage ratings from a temporary on-disk "
                         "BlockStore (batch_hogwild; auto runs it on "
                         "threads)")
    train_p.add_argument("--epochs", type=int, default=20)
    train_p.add_argument("--workers", type=int, default=64)
    train_p.add_argument("--k", type=int, default=None)
    train_p.add_argument("--lam", type=float, default=None)
    train_p.add_argument("--half", action="store_true", help="fp16 feature storage")
    train_p.add_argument("--seed", type=int, default=0)
    train_p.add_argument("--save", type=Path, help="checkpoint path for the model")
    train_p.add_argument("--fault-plan", type=Path,
                         help="JSON fault plan (see FaultPlan.save); trains "
                         "with checkpoint/rollback recovery; faults need "
                         "--scheme multi_device (elsewhere only {} runs)")
    train_p.add_argument("--checkpoint-dir", type=Path,
                         help="recovery checkpoint directory for --fault-plan "
                         "(default: a temporary directory)")
    train_p.add_argument("--sanitize", default="off",
                         choices=("off", "races", "numeric", "all"),
                         help="run under the reprosan runtime sanitizer: "
                         "'races' audits the shadow access log (write "
                         "overlaps, ownership, benign race rate) and the "
                         "BlockStore mmap lifecycle, 'numeric' adds sampled "
                         "NaN/Inf/overflow/fp64-leak checks, 'all' both; "
                         "exits nonzero on any finding")
    train_p.add_argument("--san-report", type=Path,
                         help="write the sanitizer report (findings + "
                         "race-rate table) as JSON here")
    train_p.add_argument("--trace", type=Path,
                         help="run under telemetry and write a merged "
                         "multi-lane Chrome trace here (one lane per "
                         "worker for --executor threads)")

    plan_p = sub.add_parser("plan", help="plan a training configuration (§6.1 + §7.5)")
    plan_p.add_argument("dataset", help="paper-scale data set (netflix/yahoo/hugewiki)")
    plan_p.add_argument("--gpu", choices=_GPU_CHOICES, default="maxwell")
    plan_p.add_argument("--devices", type=int, default=1)
    plan_p.add_argument("--fp32", action="store_true", help="plan for fp32 features")

    thr_p = sub.add_parser("throughput", help="modelled updates/s for a configuration")
    thr_p.add_argument("--gpu", choices=_GPU_CHOICES, default="maxwell")
    thr_p.add_argument("--dataset", default="netflix")
    thr_p.add_argument("--workers", type=int, default=None)
    thr_p.add_argument("--scheme", default="batch_hogwild",
                       choices=("batch_hogwild", "wavefront", "libmf_gpu"))
    thr_p.add_argument("--fp32", action="store_true")

    trace_p = sub.add_parser(
        "trace", help="run an experiment under telemetry; write a Chrome trace"
    )
    trace_p.add_argument("experiment", help="experiment id (fig07, fig7, table4…)")
    trace_p.add_argument("--out", type=Path, help="trace path "
                         "(default results/<exp>_trace.json)")
    trace_p.add_argument("--full", action="store_true", help="full-scale runs")
    trace_p.add_argument("--no-probe", action="store_true",
                         help="skip the standard instrumented probe")
    trace_p.add_argument("--metrics-out", type=Path,
                         help="also dump the metrics registry JSON here")

    dump_p = sub.add_parser(
        "metrics-dump", help="run an experiment under telemetry; dump metrics JSON"
    )
    dump_p.add_argument("experiment", help="experiment id (fig07, fig7, table4…)")
    dump_p.add_argument("--out", type=Path, help="metrics path "
                        "(default results/<exp>_metrics.json)")
    dump_p.add_argument("--full", action="store_true", help="full-scale runs")
    dump_p.add_argument("--no-probe", action="store_true",
                        help="skip the standard instrumented probe")
    dump_p.add_argument("--jsonl", action="store_true",
                        help="write JSONL (one metric per line) instead of JSON")

    fault_p = sub.add_parser(
        "fault-demo",
        help="kill one GPU mid-epoch under a seeded fault plan; print "
        "resilience counters",
    )
    fault_p.add_argument("--seed", type=int, default=0)
    fault_p.add_argument("--full", action="store_true", help="full-scale run")
    fault_p.add_argument("--out", type=Path,
                         help="write the (deterministic) metrics registry JSON")

    diff_p = sub.add_parser(
        "perf-diff",
        help="gate benchmark documents against the perf ledger "
        "(exit 1 on >threshold regression; missing baseline warns)",
    )
    diff_p.add_argument(
        "docs", nargs="*", type=Path,
        help="BENCH_*.json documents (default: BENCH_hot_path.json and "
        "BENCH_parallel.json where present)",
    )
    diff_p.add_argument("--against", type=Path, default=None,
                        help="perf ledger JSONL "
                        "(default results/perf_ledger.jsonl)")
    diff_p.add_argument("--threshold", type=float, default=None,
                        help="regression gate as a fraction (default 0.15)")
    diff_p.add_argument("--record", action="store_true",
                        help="append the documents to the ledger after "
                        "diffing (seeds/extends the baseline)")

    from repro.lint.cli import add_lint_arguments

    lint_p = sub.add_parser(
        "lint",
        help="run reprolint: AST invariant checker + schedule race detector",
    )
    add_lint_arguments(lint_p)
    return parser


def _cmd_list(args) -> int:
    from repro.experiments import REGISTRY

    for exp_id in sorted(REGISTRY):
        doc = (REGISTRY[exp_id].__doc__ or "").strip().splitlines()
        print(f"{exp_id:10s} {doc[0] if doc else ''}")
    return 0


def _cmd_run(args) -> int:
    from repro.experiments import run_experiment

    result = run_experiment(args.experiment, quick=not args.full)
    print(result.to_text())
    if args.csv:
        args.csv.parent.mkdir(parents=True, exist_ok=True)
        args.csv.write_text(result.to_csv())
    return 0 if result.all_checks_pass else 1


def _cmd_all(args) -> int:
    from repro.experiments import REGISTRY, run_experiment

    failed: list[str] = []
    for exp_id in sorted(REGISTRY):
        start = time.perf_counter()
        result = run_experiment(exp_id, quick=not args.full)
        elapsed = time.perf_counter() - start
        print(result.to_text())
        print(f"({elapsed:.1f}s)\n")
        if args.outdir:
            args.outdir.mkdir(parents=True, exist_ok=True)
            (args.outdir / f"{exp_id}.txt").write_text(result.to_text() + "\n")
        if not result.all_checks_pass:
            failed.append(exp_id)
    if failed:
        print(f"FAILED shape checks in: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("all shape checks passed")
    return 0


def _cmd_train(args) -> int:
    from repro.san import activate_sanitizer, sanitizer_from_mode

    san = sanitizer_from_mode(args.sanitize)
    if san is None:
        return _cmd_train_inner(args)
    # activation composes with --trace: the sanitizer wraps the collector
    # so both see the same fit (numeric failures raise out of fit itself)
    with activate_sanitizer(san):
        rc = _cmd_train_inner(args)
    report = san.finalize()
    print()
    print(report.format())
    if args.san_report is not None:
        import json

        args.san_report.parent.mkdir(parents=True, exist_ok=True)
        args.san_report.write_text(json.dumps(report.as_dict(), indent=2))
        print(f"sanitizer report -> {args.san_report}")
    if not report.clean:
        print(f"sanitizer: {len(report.findings)} finding(s)",
              file=sys.stderr)
        return 1
    return rc


def _cmd_train_inner(args) -> int:
    if args.trace is None:
        return _run_train(args)
    from repro.obs import TelemetryCollector, activate, validate_chrome_trace

    collector = TelemetryCollector(run_label=f"train-{args.dataset}")
    with activate(collector):
        rc = _run_train(args)
    trace = collector.tracer.to_chrome()
    n_events = validate_chrome_trace(trace)
    lanes = {
        (e.get("pid"), e.get("tid"))
        for e in trace["traceEvents"] if e.get("ph") != "M"
    }
    collector.tracer.write(args.trace)
    print(f"trace: {n_events} events on {len(lanes)} lanes -> {args.trace}")
    print("open in chrome://tracing or https://ui.perfetto.dev")
    return rc


def _resolve_executor(args, spec, problem) -> None:
    """Resolve ``--executor auto`` (the default) into a concrete executor.

    Structural constraints first — ``--out-of-core`` streams on threads,
    the other schemes keep to one thread (the measured evidence covers
    batch_hogwild only, and multi_device simulates its devices on one) —
    then the measured-evidence policy of
    :mod:`repro.parallel.policy` (serial unless this host's perf ledger
    shows threads beating serial). Also resolves ``--backend auto`` to a
    concrete backend, the same way for every scheme, and publishes the
    decision to any ambient metrics registry.
    """
    from repro.parallel.policy import (
        ExecutorChoice,
        choose_backend,
        choose_executor,
        publish_choice,
    )

    k = spec.k if args.k is None else args.k
    nnz = problem.train.nnz
    backend_name, reason = choose_backend(nnz, k, args.backend)
    if args.executor != "auto":
        args.backend = backend_name
        if args.procs is None:
            args.procs = 4
        print(f"kernel: backend={args.backend} ({reason})")
        return
    if args.out_of_core:
        choice = ExecutorChoice(
            "threads", args.procs or 4, backend_name,
            "--out-of-core streams through the threads executor",
        )
    elif args.scheme != "batch_hogwild":
        why = ("the measured threads_vs_serial evidence covers batch_hogwild "
               "only" if args.scheme == "wavefront"
               else "it simulates its devices on one thread")
        choice = ExecutorChoice("serial", 1, backend_name,
                                f"--scheme {args.scheme}: {why}")
    else:
        from repro.obs.ledger import DEFAULT_LEDGER_PATH, PerfLedger

        ledger = PerfLedger(DEFAULT_LEDGER_PATH) \
            if DEFAULT_LEDGER_PATH.exists() else None
        choice = choose_executor(nnz, k, backend=args.backend, ledger=ledger)
    publish_choice(choice)
    args.executor = choice.executor
    args.backend = choice.backend
    if args.procs is None:
        args.procs = choice.n_workers if choice.executor != "serial" else 4
    workers = 1 if choice.executor == "serial" else args.procs
    print(f"auto-policy: executor={choice.executor} backend={choice.backend} "
          f"workers={workers} ({choice.reason})")


def _run_train(args) -> int:
    import tempfile
    from contextlib import ExitStack

    from repro.core.checkpoint import save_model
    from repro.core.lr_schedule import NomadSchedule
    from repro.core.trainer import CuMFSGD
    from repro.data.synthetic import SCALED_DATASETS, make_synthetic
    from repro.metrics.throughput import ThroughputRecord

    if args.dataset not in SCALED_DATASETS:
        print(f"unknown data set {args.dataset!r}; choose from "
              f"{sorted(SCALED_DATASETS)}", file=sys.stderr)
        return 2
    spec = SCALED_DATASETS[args.dataset]
    problem = make_synthetic(spec, seed=args.seed)
    _resolve_executor(args, spec, problem)
    n_threads = 1 if args.executor == "serial" else args.procs
    if args.out_of_core and not 0 < n_threads <= args.workers:
        # the block grid is sized by the thread count, so reject here,
        # before any block file is written
        print(f"--procs {n_threads} must lie in [1, --workers {args.workers}]",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    trainer = None
    with ExitStack() as cleanup:
        store = None
        if args.out_of_core:
            from repro.data.blockstore import BlockStore

            root = cleanup.enter_context(tempfile.TemporaryDirectory())
            grid = max(2, n_threads)
            store = BlockStore.create(problem.train, grid, grid, root,
                                      seed=args.seed)
            print(f"blockstore: {grid}x{grid} grid, "
                  f"{store.max_block_nnz} max nnz/block -> {root}")
        try:
            if args.epochs <= 0:
                raise ValueError(f"epochs must be positive, got {args.epochs}")
            est = CuMFSGD(
                k=spec.k if args.k is None else args.k,
                scheme=args.scheme,
                workers=args.workers,
                lam=args.lam if args.lam is not None else spec.lam,
                schedule=NomadSchedule(alpha=spec.alpha, beta=spec.beta),
                half_precision=args.half,
                n_devices=2 if args.scheme == "multi_device" else 1,
                grid=(4, 4) if args.scheme == "multi_device" else (1, 1),
                seed=args.seed,
                backend=args.backend,
                n_threads=n_threads,
                store=store,
            )
            if args.fault_plan:
                from repro.resilience.faults import FaultPlan
                from repro.resilience.trainer import ResilientTrainer

                trainer = ResilientTrainer(
                    est,
                    args.checkpoint_dir
                    or cleanup.enter_context(tempfile.TemporaryDirectory()),
                    fault_plan=FaultPlan.load(args.fault_plan),
                )
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        if trainer is not None:
            history = trainer.fit(problem.train, epochs=args.epochs,
                                  test=problem.test)
        else:
            history = est.fit(problem.train, epochs=args.epochs,
                              test=problem.test, verbose=True)
    elapsed = time.perf_counter() - start
    executor = est.executor
    stage = getattr(executor, "stage_stats", None)
    if stage is not None:
        print(f"staging: {stage.blocks_loaded} blocks, "
              f"{stage.bytes_loaded / 1e6:.1f} MB loaded in "
              f"{stage.load_seconds:.2f}s (stall {stage.wait_seconds:.2f}s)")
    record = ThroughputRecord.from_history(
        history, problem.train.nnz, elapsed_seconds=elapsed,
        solver=f"cuMF_SGD/{args.scheme}", dataset=args.dataset,
        workers=args.workers, k=est.k,
    )
    print(f"\nfinal test RMSE {history.final_test_rmse:.4f} "
          f"(noise floor {problem.rmse_floor:.2f}) in {elapsed:.1f}s "
          f"({record.musec:.1f} M updates/s Eq.7, "
          f"{record.bandwidth_gbs:.2f} GB/s effective)")
    print(f"parallelism: {est.safety}")
    if getattr(executor, "stall_report", None) is not None:
        print(f"per-worker updates (last epoch): {executor.thread_updates}")
        print(executor.stall_report.format())
    if trainer is not None and trainer.events:
        counters = ", ".join(f"{k}={v:g}" for k, v in sorted(trainer.events.items()))
        print(f"resilience: {counters} (rollbacks {trainer.rollbacks}, "
              f"lr scale {trainer.lr_scale:g})")
    if args.save:
        path = save_model(args.save, est.model, epoch=len(history.epochs),
                          metadata={"dataset": args.dataset,
                                    "executor": args.executor})
        print(f"checkpoint written to {path}")
    return 0


def _instrumented_run(args):
    """Run one experiment under a fresh collector (+ optional probe)."""
    from repro.experiments import run_experiment
    from repro.obs import TelemetryCollector, activate
    from repro.obs.probe import standard_probe, workload_for_experiment

    exp_id = resolve_experiment_id(args.experiment)
    collector = TelemetryCollector(run_label=exp_id)
    with activate(collector):
        result = run_experiment(exp_id, quick=not args.full)
    if not args.no_probe:
        standard_probe(collector, workload=workload_for_experiment(exp_id))
    return exp_id, collector, result


def _print_headline(collector) -> None:
    summary = collector.summary()
    for key in ("updates_per_sec", "effective_bandwidth_gbs", "conflict_rate"):
        if key in summary:
            print(f"  {key}: {summary[key]:.4g}")
    print(f"  lock_waits: {summary['lock_waits']:.0f} "
          f"(of {summary['lock_attempts']:.0f} attempts)")
    for device, frac in sorted(summary.get("stream_overlap_fraction", {}).items()):
        print(f"  stream_overlap_fraction[gpu{device}]: {frac:.3f}")
    for label, ups in sorted(summary.get("modelled_updates_per_sec", {}).items()):
        print(f"  modelled updates/s [{label}]: {ups:.3g}")


def _cmd_trace(args) -> int:
    from repro.obs import validate_chrome_trace

    try:
        exp_id, collector, result = _instrumented_run(args)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    n_events = validate_chrome_trace(collector.tracer.to_chrome())
    out = args.out or Path("results") / f"{exp_id}_trace.json"
    collector.tracer.write(out)
    print(f"{exp_id}: {n_events} trace events -> {out}")
    print("open in chrome://tracing or https://ui.perfetto.dev")
    _print_headline(collector)
    if args.metrics_out:
        collector.registry.write_json(args.metrics_out)
        print(f"metrics -> {args.metrics_out}")
    return 0 if result.all_checks_pass else 1


def _cmd_metrics_dump(args) -> int:
    try:
        exp_id, collector, result = _instrumented_run(args)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    out = args.out or Path("results") / f"{exp_id}_metrics.json"
    if args.jsonl:
        collector.registry.write_jsonl(out)
    else:
        collector.registry.write_json(out)
    print(f"{exp_id}: {len(collector.registry)} metrics -> {out}")
    _print_headline(collector)
    return 0 if result.all_checks_pass else 1


def _cmd_fault_demo(args) -> int:
    from repro.experiments.resilience import (
        DEMO_KILL_AFTER,
        DEMO_KILL_DEVICE,
        run_fault_demo,
    )

    registry, summary = run_fault_demo(seed=args.seed, quick=not args.full)
    print(f"fault-demo (seed {args.seed}): device {DEMO_KILL_DEVICE} of 4 "
          f"killed after {DEMO_KILL_AFTER} dispatches, mid-epoch")
    print(f"  blocks processed: {summary['blocks_processed']}/"
          f"{summary['grid_blocks']} "
          f"(unique {summary['blocks_unique']}, "
          f"{summary['survivor_blocks']} on survivors)")
    print(f"  updates: {summary['updates']} of {summary['nnz']} ratings")
    print(f"  dead devices: {summary['dead_devices']}, "
          f"rounds: {summary['rounds']}, "
          f"retried bytes: {summary['retried_bytes']}")
    for name in sorted(k for k in summary if k not in (
        "updates", "nnz", "blocks_processed", "blocks_unique", "grid_blocks",
        "survivor_blocks", "dead_devices", "rounds", "retried_bytes",
    )):
        print(f"  repro.resilience.{name}: {summary[name]:g}")
    if args.out:
        registry.write_json(args.out)
        print(f"metrics -> {args.out} (byte-identical for the same seed)")
    complete = (
        summary["blocks_processed"] == summary["grid_blocks"]
        and summary["blocks_unique"] == summary["grid_blocks"]
        and summary["updates"] == summary["nnz"]
    )
    print("epoch completed degraded" if complete else "epoch INCOMPLETE")
    return 0 if complete else 1


def _cmd_plan(args) -> int:
    from repro.data.synthetic import PAPER_DATASETS
    from repro.gpusim.planner import plan_training

    if args.dataset not in PAPER_DATASETS:
        print(f"unknown data set {args.dataset!r}; choose from "
              f"{sorted(PAPER_DATASETS)}", file=sys.stderr)
        return 2
    try:
        plan = plan_training(
            PAPER_DATASETS[args.dataset],
            _gpu_spec(args.gpu),
            n_devices=args.devices,
            half_precision=not args.fp32,
        )
    except ValueError as exc:
        print(f"no feasible plan: {exc}", file=sys.stderr)
        return 1
    print(plan)
    return 0


def _cmd_throughput(args) -> int:
    from repro.data.synthetic import PAPER_DATASETS
    from repro.gpusim.simulator import cumf_throughput

    if args.dataset not in PAPER_DATASETS:
        print(f"unknown data set {args.dataset!r}", file=sys.stderr)
        return 2
    point = cumf_throughput(
        _gpu_spec(args.gpu),
        PAPER_DATASETS[args.dataset],
        workers=args.workers,
        scheme=args.scheme,
        half_precision=not args.fp32,
    )
    print(f"{point.solver} on {point.device}, {point.dataset}, "
          f"{point.workers} workers: {point.mupdates:.0f} M updates/s, "
          f"{point.effective_bandwidth_gbs:.0f} GB/s effective")
    return 0


def _cmd_perf_diff(args) -> int:
    import json

    from repro.obs.ledger import (
        DEFAULT_LEDGER_PATH,
        DEFAULT_THRESHOLD,
        PerfLedger,
        perf_diff,
    )

    paths = args.docs or [
        p for p in (Path("BENCH_hot_path.json"), Path("BENCH_parallel.json"))
        if p.exists()
    ]
    if not paths:
        print("perf-diff: no benchmark documents found — pass paths or run "
              "the benches first", file=sys.stderr)
        return 2
    docs = []
    for path in paths:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"perf-diff: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(doc, dict) or "benchmark" not in doc:
            print(f"perf-diff: {path} is not a benchmark document",
                  file=sys.stderr)
            return 2
        docs.append(doc)
    ledger = PerfLedger(args.against or DEFAULT_LEDGER_PATH)
    threshold = DEFAULT_THRESHOLD if args.threshold is None else args.threshold
    result = perf_diff(docs, ledger, threshold=threshold)
    print(result.format())
    if args.record:
        for doc in docs:
            ledger.append(doc)
        print(f"recorded {len(docs)} run(s) to {ledger.path}")
    return 0 if result.ok else 1


def _cmd_lint(args) -> int:
    from repro.lint.cli import run_from_args

    return run_from_args(args)


def main(argv: list[str] | None = None) -> int:
    """CLI dispatch; returns the process exit code."""
    # One BLAS thread, asked for before any command imports numpy. Loading
    # OpenBLAS starts cpu_count - 1 worker threads, which spin while the
    # launch is still importing: on a 2-vCPU host one thread cut numpy's
    # import from ~114 to ~53 ms and a serial train's CPU time by ~65 ms.
    # No command makes a BLAS call that a second thread speeds up (eval's
    # residual dot, the reference kernels' k-length dots), and the launch
    # runs its parallel work on its own threads. A user's setting wins;
    # once numpy is loaded (an in-process caller) the setting could only
    # leak into the processes it spawns.
    if "numpy" not in sys.modules and not any(
            name in os.environ for name in _BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    args = _build_parser().parse_args(argv)
    return {
        "list": _cmd_list,
        "run": _cmd_run,
        "all": _cmd_all,
        "train": _cmd_train,
        "plan": _cmd_plan,
        "throughput": _cmd_throughput,
        "trace": _cmd_trace,
        "metrics-dump": _cmd_metrics_dump,
        "fault-demo": _cmd_fault_demo,
        "perf-diff": _cmd_perf_diff,
        "lint": _cmd_lint,
    }[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
