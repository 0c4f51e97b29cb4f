"""The paper's primary contribution: cuMF_SGD.

* :mod:`repro.core.kernels` — the SGD update kernel (§4), vectorized over a
  wave of concurrent parallel workers with explicit Hogwild race semantics,
  in fp32 or half-precision feature storage.
* :mod:`repro.core.lr_schedule` — Eq. 9 learning-rate schedule plus constant
  and ADAGRAD alternatives.
* :mod:`repro.core.hogwild` / :mod:`repro.core.wavefront` — the two
  GPU-specific scheduling schemes of §5.
* :mod:`repro.core.partition` / :mod:`repro.core.multi_gpu` — the §6 workload
  partition for data sets larger than one device's memory.
* :mod:`repro.core.trainer` — the public ``CuMFSGD`` estimator tying it all
  together.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "kernels": ("sgd_wave_update", "sgd_serial_update", "single_update",
                "WaveWorkspace"),
    "lr_schedule": ("LearningRateSchedule", "ConstantSchedule",
                    "NomadSchedule", "AdaGradSchedule"),
    "model": ("FactorModel",),
    "hogwild": ("BatchHogwild",),
    "wavefront": ("WavefrontScheduler",),
    "partition": ("GridPartition",),
    "multi_gpu": ("MultiDeviceSGD",),
    "trainer": ("CuMFSGD", "TrainHistory"),
    "convergence": ("hogwild_safety_bound", "is_safe_parallelism"),
    "adagrad": ("AdaGradHogwild",),
    "checkpoint": ("Checkpoint", "save_model", "load_model"),
})
