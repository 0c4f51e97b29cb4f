"""Profiling hook protocol threaded through trainer, schedulers, and gpusim.

The contract has four callbacks, mirroring the four things the paper
measures:

* ``on_epoch`` — one full pass finished (wall time, updates, RMSE; the
  per-epoch rows behind every RMSE-vs-time figure);
* ``on_batch`` — one scheduled block executed (wavefront grid block,
  multi-device staged block; carries scheduler wait counts);
* ``on_kernel`` — one kernel-equivalent launch (a Hogwild wave, read off
  the epoch's plan by :func:`emit_plan_events`); carries the wave's
  row/column indices so a collector can compute Eq. 6 conflict rates;
* ``on_transfer`` — modelled bytes crossed the CPU-GPU interconnect.

**Zero-cost discipline**: every producer takes ``hooks=None`` and resolves
it via :func:`resolve_hooks` to the shared :data:`NULL_HOOKS` singleton,
whose ``active`` flag is False. Producers guard event *construction* with
``if hooks.active:``, and no producer picks its kernel path by whether
anyone listens: the numeric path is bit-identical to the uninstrumented
code (asserted by ``tests/test_obs.py``).

This module deliberately imports nothing from ``repro.core`` / ``repro.gpusim``
so both sides can depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = [
    "EpochEvent",
    "BatchEvent",
    "KernelEvent",
    "TransferEvent",
    "TrainerHooks",
    "NullHooks",
    "NULL_HOOKS",
    "RecordingHooks",
    "resolve_hooks",
    "emit_plan_events",
]


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EpochEvent:
    """One completed training epoch."""

    epoch: int  # 1-based
    lr: float
    n_updates: int
    train_rmse: float | None = None
    test_rmse: float | None = None
    #: wall seconds spent inside the executor (excludes RMSE evaluation)
    seconds: float = 0.0
    #: wall seconds spent evaluating train/test RMSE
    eval_seconds: float = 0.0
    #: rating-matrix nnz, for Eq. 7 updates/s
    nnz: int = 0
    k: int = 0
    feature_bytes: int = 4
    scheme: str = ""
    #: executor-specific diagnostics (lock waits, rounds, collision rate…)
    extra: dict = field(default_factory=dict)

    @property
    def updates_per_sec(self) -> float:
        return self.n_updates / self.seconds if self.seconds > 0 else 0.0


@dataclass(slots=True)
class BatchEvent:
    """One scheduled block executed by one worker/device.

    Slotted and unfrozen: batch/kernel events fire at high rate, and a
    frozen dataclass pays ``object.__setattr__`` per field on construction
    (~2x the cost — measured by ``benchmarks/bench_obs_overhead.py``).
    """

    scheme: str
    worker: int
    block: tuple[int, int]
    n_updates: int
    #: failed lock acquisitions this worker accumulated before the grant
    waits: int = 0


@dataclass(slots=True)
class KernelEvent:
    """One kernel-equivalent launch (a Hogwild/AdaGrad wave).

    Slotted and unfrozen for construction speed — see :class:`BatchEvent`.

    High-rate producers honor the consumer's ``kernel_stride`` hint (an
    optional integer attribute on the hooks object, default 1): they emit
    one event per ``stride`` waves and set :attr:`n_waves` to the number of
    launches the event stands for, so wave *counts* stay exact while the
    per-wave emission cost amortizes away. Likewise :attr:`n_updates` is
    the **exact total** of updates across those ``n_waves`` launches (not
    the last wave's size), so per-epoch update counts sum to ``nnz`` for
    any stride. Eq. 6 conflict fractions are then a 1-in-``stride`` sample
    (the event carries the last wave's coordinates) — fine for a
    statistical quantity.
    """

    name: str
    #: exact update total across the n_waves launches this event covers
    n_updates: int
    #: wave coordinates for Eq. 6 conflict accounting (may be None)
    rows: Sequence[int] | None = None
    cols: Sequence[int] | None = None
    #: launches this event represents (stride-1 of them unreported)
    n_waves: int = 1


@dataclass(frozen=True)
class TransferEvent:
    """Modelled bytes crossing the CPU-GPU interconnect."""

    direction: str  # "h2d" | "d2h"
    n_bytes: int
    device: int = 0
    block: tuple[int, int] = (0, 0)


# ----------------------------------------------------------------------
# protocol + null object
# ----------------------------------------------------------------------
@runtime_checkable
class TrainerHooks(Protocol):
    """Anything accepting the four callbacks (duck-typed; see NullHooks)."""

    active: bool

    def on_epoch(self, event: EpochEvent) -> None: ...

    def on_batch(self, event: BatchEvent) -> None: ...

    def on_kernel(self, event: KernelEvent) -> None: ...

    def on_transfer(self, event: TransferEvent) -> None: ...


class NullHooks:
    """Do-nothing hooks: the default, and the zero-cost guarantee.

    ``active`` is False so producers skip event construction entirely; the
    callbacks exist (as no-ops) so even an unguarded call site stays safe.
    """

    active = False

    def on_epoch(self, event: EpochEvent) -> None:
        pass

    def on_batch(self, event: BatchEvent) -> None:
        pass

    def on_kernel(self, event: KernelEvent) -> None:
        pass

    def on_transfer(self, event: TransferEvent) -> None:
        pass


#: Shared singleton — identity-compared by resolve_hooks and tests.
NULL_HOOKS = NullHooks()


def resolve_hooks(hooks: "TrainerHooks | None") -> "TrainerHooks":
    """None -> the ambient collector (if activated) or NULL_HOOKS."""
    if hooks is not None:
        return hooks
    from repro.obs.context import active_hooks

    return active_hooks()


def emit_plan_events(hooks: "TrainerHooks", plan, rows, cols,
                     name: str = "hogwild.wave") -> None:
    """Send active ``hooks`` one replayed epoch's kernel events, read off
    its :class:`~repro.sched.plan.EpochPlan` over the data ids ``rows`` /
    ``cols``: one ``name`` event per ``kernel_stride`` waves (every wave
    for a consumer without the hint) with its window's exact updates and
    waves and its last wave's ids (``intp``, the Eq. 6 sample), then one
    without ids for the tail. Call it before the plan is re-permuted."""
    n_waves = plan.n_waves
    if not hooks.active or not n_waves:
        return
    stride = max(1, int(getattr(hooks, "kernel_stride", 1)))
    full = n_waves // stride
    totals = np.add.reduceat(plan.lengths, np.arange(0, n_waves, stride))
    for window, n_updates in enumerate(totals.tolist()):
        if window == full:  # the tail
            hooks.on_kernel(KernelEvent(name=name, n_updates=n_updates,
                                        n_waves=n_waves - full * stride))
            break
        pos = plan.wave_positions((window + 1) * stride - 1)
        hooks.on_kernel(KernelEvent(
            name=name, n_updates=n_updates,
            rows=np.asarray(rows[pos], dtype=np.intp),
            cols=np.asarray(cols[pos], dtype=np.intp), n_waves=stride,
        ))


class RecordingHooks:
    """Keeps every event in plain lists — the simplest real consumer,
    used by tests and handy for notebook-style inspection."""

    active = True

    def __init__(self) -> None:
        self.epochs: list[EpochEvent] = []
        self.batches: list[BatchEvent] = []
        self.kernels: list[KernelEvent] = []
        self.transfers: list[TransferEvent] = []

    def on_epoch(self, event: EpochEvent) -> None:
        self.epochs.append(event)

    def on_batch(self, event: BatchEvent) -> None:
        self.batches.append(event)

    def on_kernel(self, event: KernelEvent) -> None:
        self.kernels.append(event)

    def on_transfer(self, event: TransferEvent) -> None:
        self.transfers.append(event)
