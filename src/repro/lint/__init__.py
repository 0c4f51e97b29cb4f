"""reprolint: the repo's own static-analysis framework.

An AST-based invariant checker + schedule race detector that locks in the
guarantees earlier PRs established by construction:

* ``hotpath-alloc`` — registered hot-path functions stay allocation-free in
  steady state (:mod:`repro.lint.allocations`);
* ``dtype-fp64`` — no fp64 leakage into the fp32 kernel path
  (:mod:`repro.lint.dtypes`);
* ``rng-legacy`` — all randomness flows through seeded ``Generator`` objects
  (:mod:`repro.lint.rng`);
* ``metric-name`` — every ``repro.*`` metric name matches the manifest in
  :mod:`repro.obs.registry` (:mod:`repro.lint.telemetry`);
* ``race-shared-write`` / ``race-schedule`` — threaded executors respect the
  declared lock discipline, and compiled schedules are mechanically verified
  conflict-free (:mod:`repro.lint.races`);
* ``shm-lifecycle`` / ``barrier-pairing`` — shared-memory segments are
  released and barriers carry a timed wait plus an abort path
  (:mod:`repro.lint.parallelism`);
* ``suppression-stale`` — every ``# lint:`` annotation still silences a
  finding some pass would otherwise report (:mod:`repro.lint.stale`).

reprolint is the *static* half of the checking story; its runtime
complement is reprosan (:mod:`repro.san`), which observes the executors
live. ``docs/STATIC_ANALYSIS.md`` has the division of labor.

Entry points: ``repro lint`` / ``cumf-sgd lint`` (main CLI),
``python -m repro.lint`` (standalone), :func:`run_lint` (library), and the
tier-1 gate ``tests/test_lint_clean.py``. See ``docs/STATIC_ANALYSIS.md``.
"""

import importlib

#: public name -> the submodule defining it; imported on first access
#: (PEP 562), so mounting the ``lint`` subcommand on the main CLI through
#: :mod:`repro.lint.cli` loads none of the passes
_EXPORTS = {
    "FileContext": "core",
    "Finding": "core",
    "LintPass": "core",
    "DEFAULT_PASSES": "driver",
    "LintReport": "driver",
    "iter_python_files": "driver",
    "load_baseline": "driver",
    "run_lint": "driver",
    "write_baseline": "driver",
    "HOT_FUNCTIONS": "hotpaths",
    "HotSpec": "hotpaths",
    "hot_path": "hotpaths",
    "check_epoch_plan": "races",
    "check_round_grants": "races",
    "check_serial_plan": "races",
    "check_wavefront_sequences": "races",
    "schedule_selfcheck": "races",
    "simulate_wavefront_rounds": "races",
    "to_human": "report",
    "to_json": "report",
    "to_json_dict": "report",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
