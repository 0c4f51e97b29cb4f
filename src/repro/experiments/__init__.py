"""Experiment harness: one module per paper table/figure.

Every experiment is a function ``run(quick: bool = True) -> ExperimentResult``
registered in :data:`repro.experiments.base.REGISTRY`, which imports the
experiment modules on first use. ``quick`` trades data-set size and epoch
counts for runtime; the reported *shape* (who wins, by roughly what factor,
where crossovers fall) is the reproduction target — absolute numbers live
in the performance model, whose paper-scale parameters are used regardless
of ``quick``.

Run from the CLI::

    cumf-sgd list
    cumf-sgd run fig09 --full
    cumf-sgd all
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "base": ("REGISTRY", "ExperimentResult", "get_experiment",
             "run_experiment"),
})
