"""repro — a reproduction of *CuMF_SGD: Parallelized Stochastic Gradient
Descent for Matrix Factorization on GPUs* (Xie, Tan, Fong, Liang; HPDC '17).

The package is organised as:

* :mod:`repro.core` — the paper's contribution: the SGD kernel with explicit
  Hogwild race semantics, the batch-Hogwild! and wavefront-update schedulers,
  multi-device workload partitioning, and the ``CuMFSGD`` estimator.
* :mod:`repro.data` — sparse rating containers and synthetic Table-2-shaped
  data set generators.
* :mod:`repro.metrics` — RMSE, #Updates/s (Eq. 7) and Flops/Byte (Eq. 5).
* :mod:`repro.sched` — scheduling machinery: conflict predicate, LIBMF's
  global table, the wavefront column-lock array, order enumeration.
* :mod:`repro.gpusim` — the GPU/CPU performance-model substrate replacing
  the paper's Maxwell/Pascal hardware.
* :mod:`repro.baselines` — LIBMF, NOMAD, BIDMach and cuMF_ALS
  reimplementations.
* :mod:`repro.experiments` — one module per paper table/figure.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __all__ = lazy_exports(__name__, {
    "core.trainer": ("CuMFSGD", "TrainHistory"),
    "core.model": ("FactorModel",),
    "data.container": ("RatingMatrix",),
    "data.synthetic": ("scaled_dataset", "make_synthetic"),
    "metrics.rmse": ("rmse",),
})
__all__ += ["__version__"]
