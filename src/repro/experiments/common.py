"""Shared helpers for the numeric+perf experiments (Figs. 9/12/16, Table 4).

The split every such experiment uses:

* **numeric path** — real SGD on a laptop-scale synthetic problem gives the
  per-epoch RMSE curve and epochs-to-target for each solver;
* **performance path** — the :mod:`repro.gpusim` model gives seconds/epoch
  at the *paper-scale* data set parameters for each (solver, platform);
* time axis = epochs x modelled epoch seconds.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from functools import lru_cache

from repro.baselines.als import ALSSolver, als_epoch_seconds
from repro.baselines.bidmach import BIDMachSGD, bidmach_throughput
from repro.baselines.libmf import LIBMFSolver
from repro.baselines.nomad import NOMADSolver, nomad_epoch_seconds
from repro.core.lr_schedule import NomadSchedule
from repro.core.trainer import CuMFSGD, TrainHistory
from repro.data.synthetic import (
    PAPER_DATASETS,
    SCALED_DATASETS,
    DatasetSpec,
    SyntheticProblem,
    make_synthetic,
)
from repro.gpusim.simulator import epoch_seconds
from repro.gpusim.specs import MAXWELL_TITAN_X, PASCAL_P100, XEON_E5_2670_DUAL
from repro.gpusim.simulator import libmf_cpu_throughput

__all__ = [
    "QUICK_DATASETS",
    "dataset_problem",
    "numeric_history",
    "run_numeric_solver",
    "modelled_epoch_seconds",
    "NUMERIC_SOLVERS",
    "PLATFORM_SOLVERS",
    "paper_spec_for",
    "timed",
]


@contextmanager
def timed(name: str, **labels):
    """Measure a block with ``time.perf_counter`` (monotonic — never
    ``time.time``, which drifts under NTP) and report the elapsed seconds
    as ``repro.exp.elapsed_seconds`` on the ambient metrics registry.

    Yields a one-entry dict; ``result["seconds"]`` holds the elapsed time
    after the block exits.
    """
    from repro.obs.context import active_registry
    from repro.obs.registry import M

    result = {"seconds": 0.0}
    start = time.perf_counter()
    try:
        yield result
    finally:
        result["seconds"] = time.perf_counter() - start
        registry = active_registry()
        if registry is not None:
            series = registry.series(
                M.EXP_ELAPSED_SECONDS, {"name": name, **labels}
            )
            series.append(len(series), result["seconds"])

#: Quick-mode down-scales of the three workloads (same aspect-ratio logic
#: as SCALED_DATASETS, ~4x smaller; β likewise retuned for the small scale).
QUICK_DATASETS: dict[str, DatasetSpec] = {
    "netflix": DatasetSpec(
        name="netflix-quick", m=1200, n=450, k=16, n_train=100_000, n_test=8_000,
        lam=0.05, alpha=0.08, beta=0.05,
    ),
    "yahoo": DatasetSpec(
        name="yahoo-quick", m=1250, n=780, k=16, n_train=120_000, n_test=9_000,
        lam=0.05, alpha=0.08, beta=0.05,
    ),
    "hugewiki": DatasetSpec(
        name="hugewiki-quick", m=10_000, n=520, k=16, n_train=240_000, n_test=12_000,
        lam=0.03, alpha=0.08, beta=0.05,
    ),
}

_FULL_KEYS = {"netflix": "netflix-syn", "yahoo": "yahoo-syn", "hugewiki": "hugewiki-syn"}


def paper_spec_for(workload: str) -> DatasetSpec:
    return PAPER_DATASETS[workload]


@lru_cache(maxsize=16)
def dataset_problem(workload: str, quick: bool = True, seed: int = 11) -> SyntheticProblem:
    """Generate (and cache) the numeric problem for a workload."""
    spec = QUICK_DATASETS[workload] if quick else SCALED_DATASETS[_FULL_KEYS[workload]]
    return make_synthetic(spec, seed=seed)


#: Solvers that produce numeric convergence curves. The cuMF numeric curve is
#: platform-independent (Maxwell and Pascal differ in *time*, not math).
NUMERIC_SOLVERS = ("LIBMF", "NOMAD", "BIDMach", "cuMF_SGD", "cuMF_ALS")

#: (display name, numeric solver, platform) combinations of Fig. 9.
PLATFORM_SOLVERS = (
    ("LIBMF", "LIBMF", "cpu"),
    ("NOMAD", "NOMAD", "cluster"),
    ("BIDMach-M", "BIDMach", "maxwell"),
    ("BIDMach-P", "BIDMach", "pascal"),
    ("cuMF_SGD-M", "cuMF_SGD", "maxwell"),
    ("cuMF_SGD-P", "cuMF_SGD", "pascal"),
)


def run_numeric_solver(
    solver: str,
    problem: SyntheticProblem,
    epochs: int,
    seed: int = 5,
) -> TrainHistory:
    """Fit one solver on a synthetic problem and return its history."""
    spec = problem.spec
    schedule = NomadSchedule(alpha=spec.alpha, beta=spec.beta)
    if solver == "cuMF_SGD":
        est = CuMFSGD(k=spec.k, scheme="batch_hogwild", workers=64, lam=spec.lam,
                      schedule=schedule, seed=seed)
    elif solver == "LIBMF":
        est = LIBMFSolver(k=spec.k, threads=8, a=24, lam=spec.lam,
                          schedule=schedule, seed=seed)
    elif solver == "NOMAD":
        est = NOMADSolver(k=spec.k, nodes=8, lam=spec.lam, schedule=schedule, seed=seed)
    elif solver == "BIDMach":
        est = BIDMachSGD(k=spec.k, batch=4096, lam=spec.lam, seed=seed)
    elif solver == "cuMF_ALS":
        est = ALSSolver(k=spec.k, lam=spec.lam, seed=seed)
    else:
        raise KeyError(f"unknown numeric solver {solver!r}; known: {NUMERIC_SOLVERS}")
    with timed("run_numeric_solver", solver=solver, dataset=spec.name):
        return est.fit(problem.train, epochs=epochs, test=problem.test)


@lru_cache(maxsize=32)
def numeric_history(solver: str, workload: str, quick: bool,
                    epochs: int) -> TrainHistory:
    """:func:`run_numeric_solver` on :func:`dataset_problem`'s problem,
    fitted once per process for each argument tuple: Fig. 9, Table 4 and
    the cost experiment read the same histories. Keyed on these values,
    not on the problem object, so an evicted problem cannot alias another.
    The history is shared, so treat it as read-only."""
    return run_numeric_solver(solver, dataset_problem(workload, quick),
                              epochs)


def modelled_epoch_seconds(display_name: str, workload: str) -> float:
    """Seconds per epoch at paper scale for a Fig. 9 solver."""
    spec = paper_spec_for(workload)
    if display_name == "LIBMF":
        return spec.n_train / libmf_cpu_throughput(XEON_E5_2670_DUAL, spec).updates_per_sec
    if display_name == "NOMAD":
        nodes = 64 if workload == "hugewiki" else 32
        return nomad_epoch_seconds(spec, nodes)
    if display_name == "BIDMach-M":
        return spec.n_train / bidmach_throughput(MAXWELL_TITAN_X, spec)
    if display_name == "BIDMach-P":
        return spec.n_train / bidmach_throughput(PASCAL_P100, spec)
    if display_name == "cuMF_SGD-M":
        return epoch_seconds(MAXWELL_TITAN_X, spec)
    if display_name == "cuMF_SGD-P":
        return epoch_seconds(PASCAL_P100, spec)
    if display_name == "cuMF_ALS-1":
        return als_epoch_seconds(MAXWELL_TITAN_X, spec, n_gpus=1)
    if display_name == "cuMF_ALS-4":
        return als_epoch_seconds(MAXWELL_TITAN_X, spec, n_gpus=4)
    raise KeyError(f"unknown platform solver {display_name!r}")
