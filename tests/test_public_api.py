"""The public API surface: everything advertised in __all__ imports and is
real."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.data",
    "repro.metrics",
    "repro.sched",
    "repro.gpusim",
    "repro.baselines",
    "repro.parallel",
    "repro.analysis",
    "repro.experiments",
    "repro.resilience",
    "repro.obs",
    "repro.san",
    "repro.backends",
    "repro.lint",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_all_resolves(name):
    mod = importlib.import_module(name)
    assert hasattr(mod, "__all__"), f"{name} lacks __all__"
    for symbol in mod.__all__:
        assert hasattr(mod, symbol), f"{name}.{symbol} advertised but missing"


def test_top_level_shortcuts():
    import repro

    assert repro.__version__
    assert callable(repro.CuMFSGD)
    assert callable(repro.scaled_dataset)


def test_core_exposes_checkpointing_and_adagrad():
    from repro.core import AdaGradHogwild, Checkpoint, load_model, save_model  # noqa: F401


def test_data_exposes_preprocessing():
    from repro.data import ScaleNormalizer, compact_ids, remove_biases  # noqa: F401


def test_every_public_function_documented():
    """Each advertised symbol carries a docstring (deliverable e)."""
    for name in PACKAGES:
        mod = importlib.import_module(name)
        for symbol in mod.__all__:
            obj = getattr(mod, symbol)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"{name}.{symbol} lacks a docstring"
