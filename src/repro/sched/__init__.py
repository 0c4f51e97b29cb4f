"""Shared scheduling machinery.

* :mod:`repro.sched.conflict` — the independence predicate of Eq. 6 and
  collision statistics for waves of concurrent updates.
* :mod:`repro.sched.table` — LIBMF's global ``a x a`` scheduling table
  (Fig. 5a), including the O(a²) scan cost the paper measures.
* :mod:`repro.sched.column_lock` — the wavefront 1-D column-lock array
  (Fig. 6) that replaces the 2-D table.
* :mod:`repro.sched.ordering` — feasible block-update-order enumeration,
  reproducing the 8-of-24 example of Fig. 15.
* :mod:`repro.sched.plan` — compiled epoch plans: the batch-Hogwild! wave
  schedule as one cached index matrix, and the conflict-free serial
  segmentation behind per-worker replay.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "conflict": ("independent", "count_conflicts", "collision_fraction",
                 "expected_collision_fraction", "wave_is_conflict_free"),
    "table": ("GlobalScheduleTable",),
    "column_lock": ("ColumnLockArray",),
    "plan": ("EpochPlan", "SerialPlan", "PlanStats"),
    "ordering": ("enumerate_feasible_orders", "count_feasible_orders",
                 "feasible_order_fraction"),
})
