"""Cost-efficiency — the §7.2 aside, quantified.

"Obviously, cuMF_SGD is not only faster, using a single GPU card, it is also
more cost-efficient." This experiment converts the Table 4 time-to-converge
values into cost-to-converge with coarse 2017 platform rates, showing the
one-GPU solution beating the 64-node cluster by orders of magnitude on cost.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult, register
from repro.experiments.common import (
    modelled_epoch_seconds,
    numeric_history,
)
from repro.gpusim.cost import PLATFORM_COSTS, cost_to_converge

__all__ = ["run"]

_PLATFORM_OF = {
    "LIBMF": "cpu-server",
    "NOMAD": "hpc-cluster-32",
    "cuMF_SGD-M": "maxwell-gpu",
    "cuMF_SGD-P": "pascal-gpu",
}


@register("cost")
def run(quick: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="cost",
        title="Cost to converge: one GPU vs CPU server vs HPC cluster",
        headers=("dataset", "solver", "platform", "time_s", "cost_usd"),
    )
    epochs = 8 if quick else 20
    costs: dict[tuple[str, str], float] = {}
    for workload in ("netflix", "hugewiki"):
        histories = {
            numeric: numeric_history(numeric, workload, quick, epochs)
            for numeric in {"LIBMF", "NOMAD", "cuMF_SGD"}
        }
        target = max(h.best_test_rmse for h in histories.values()) * 1.002
        for display, numeric in (
            ("LIBMF", "LIBMF"),
            ("NOMAD", "NOMAD"),
            ("cuMF_SGD-M", "cuMF_SGD"),
            ("cuMF_SGD-P", "cuMF_SGD"),
        ):
            reach = histories[numeric].epochs_to_target(target)
            if reach is None:
                continue
            platform = _PLATFORM_OF[display]
            if display == "NOMAD" and workload == "hugewiki":
                platform = "hpc-cluster-64"
            seconds = reach * modelled_epoch_seconds(display, workload)
            usd = cost_to_converge(platform, seconds)
            costs[(workload, display)] = usd
            result.add(workload, display, PLATFORM_COSTS[platform].name,
                       round(seconds, 1), round(usd, 5))

    for workload in ("netflix", "hugewiki"):
        nomad = costs.get((workload, "NOMAD"))
        gpu_m = costs.get((workload, "cuMF_SGD-M"))
        gpu_p = costs.get((workload, "cuMF_SGD-P"))
        if nomad and gpu_m:
            result.check(
                f"{workload}: one Maxwell GPU >10x cheaper than the cluster",
                nomad / gpu_m > 10,
            )
        if nomad and gpu_p:
            result.check(
                f"{workload}: one Pascal GPU cheaper than the cluster",
                gpu_p < nomad,
            )
        libmf = costs.get((workload, "LIBMF"))
        if libmf and gpu_m:
            result.check(
                f"{workload}: GPU also cheaper than the CPU server",
                gpu_m < libmf,
            )
    result.notes.append(
        'paper: "cuMF_SGD is not only faster, using a single GPU card, '
        'it is also more cost-efficient"'
    )
    return result
