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

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "core": ("FileContext", "Finding", "LintPass"),
    "driver": ("DEFAULT_PASSES", "LintReport", "iter_python_files",
               "load_baseline", "run_lint", "write_baseline"),
    "hotpaths": ("HOT_FUNCTIONS", "HotSpec", "hot_path"),
    "races": ("check_epoch_plan", "check_round_grants", "check_serial_plan",
              "check_wavefront_sequences", "schedule_selfcheck",
              "simulate_wavefront_rounds"),
    "report": ("to_human", "to_json", "to_json_dict"),
})
