"""Ambient telemetry context.

The experiment registry runs arbitrary ``run(quick=...)`` callables that
build their own trainers and simulator calls internally; threading a
``hooks=`` argument through every one of them would bloat every signature in
the repo. Instead a collector can be *activated* for a dynamic scope::

    collector = TelemetryCollector()
    with activate(collector):
        run_experiment("fig7")          # everything inside is instrumented

Producers resolve ``hooks=None`` through :func:`active_hooks` /
:func:`repro.obs.hooks.resolve_hooks`; gpusim model code asks for
:func:`active_tracer` / :func:`active_registry` directly. With nothing
activated all of these return the null object (or None), keeping the
uninstrumented path zero-cost.

Implemented with :mod:`contextvars` so the threaded executors in
``repro.parallel`` and nested activations both behave: the innermost
activation wins, and leaving the ``with`` block restores the previous one.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Iterator

from repro.obs.hooks import NULL_HOOKS, TrainerHooks

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.collector import TelemetryCollector
    from repro.obs.registry import MetricsRegistry
    from repro.obs.tracer import Tracer

__all__ = [
    "activate",
    "active_hooks",
    "active_registry",
    "active_tracer",
]

_current: ContextVar["TelemetryCollector | None"] = ContextVar(
    "repro_obs_collector", default=None
)


@contextmanager
def activate(collector: "TelemetryCollector") -> Iterator["TelemetryCollector"]:
    """Make ``collector`` the ambient telemetry sink for the enclosed scope."""
    token = _current.set(collector)
    try:
        yield collector
    finally:
        _current.reset(token)


def active_hooks() -> TrainerHooks:
    """The ambient collector as a hooks sink; NULL_HOOKS when inactive."""
    collector = _current.get()
    return NULL_HOOKS if collector is None else collector


def active_registry() -> "MetricsRegistry | None":
    """The ambient collector's metrics registry, or None outside any
    activation."""
    collector = _current.get()
    return None if collector is None else collector.registry


def active_tracer() -> "Tracer | None":
    """The ambient collector's tracer, or None outside any activation.
    An empty :class:`~repro.obs.tracer.Tracer` is falsy, so test the
    result with ``is None``."""
    collector = _current.get()
    return None if collector is None else collector.tracer
