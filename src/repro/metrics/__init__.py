"""Metrics: the quantities the paper reports.

* test RMSE (the convergence indicator of every RMSE-vs-time figure),
* ``#Updates/s`` (Eq. 7, the throughput indicator of Figs. 5, 7, 10, 11),
* Flops/Byte (Eqs. 4-5, the §2.3 workload characterization),
* effective memory bandwidth (Figs. 2, 10, 11).
"""

from repro._lazy import lazy_exports

# eager: ``rmse`` is also a submodule, whose import would bind the module
# over a lazy name
from repro.metrics.rmse import rmse

__getattr__, __all__ = lazy_exports(__name__, {
    "rmse": ("predict", "rmse_objective"),
    "ranking": ("top_n", "hit_rate", "precision_at_n", "recall_at_n",
                "ndcg_at_n"),
    "throughput": ("updates_per_second", "effective_bandwidth",
                   "ThroughputRecord"),
    "flops": ("flops_byte_ratio", "flops_per_update", "bytes_per_update",
              "FLOPS_PER_UPDATE", "BYTES_PER_UPDATE"),
})
__all__ = ["rmse", *__all__]
