"""Kernel-backend contract: one shard kernel and one serial kernel per backend.

The reference SGD kernels (:mod:`repro.core.kernels`) are vectorized NumPy
with explicit Hogwild race semantics — snapshot gathers, last-writer-wins
scatters — and every convergence and bit-identity claim in the repo anchors
on them.  A :class:`KernelBackend` packages one alternative implementation
of exactly that contract, as two entry points:

* :meth:`KernelBackend.replay` — one epoch of one worker's plan shard (or a
  whole :class:`~repro.sched.plan.EpochPlan`), the unit every executor
  launches, observed or sanitized or not.  The NumPy backend runs
  :func:`replay_waves`, the Python wave loop, over the workspace's own
  ``wave_update``, so dispatching through the registry is the
  pre-registry code path — same callable, same bits; the compiled ``c``
  backend runs the shard in one GIL-free foreign call;
* :meth:`KernelBackend.serial_update` — serial SGD over one worker's
  samples in order, the unit an out-of-core or wavefront block launches
  (NumPy: conflict-free segments; ``c``: one foreign call).

``exact`` declares the verification gate: exact backends must reproduce the
reference kernels bit for bit (``tobytes`` equality); accelerated backends
(different summation order, fused arithmetic) are held to a numerical
tolerance instead.  :func:`repro.backends.registry.get_backend` runs the
gate on both entry points before handing a backend out.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.core.kernels import UPDATE_ERRSTATE

__all__ = ["BackendType", "KernelBackend", "replay_waves"]


class BackendType(str, Enum):
    """Registered kernel-backend families."""

    NUMPY = "numpy"
    C = "c"

    def __str__(self) -> str:  # "numpy", not "BackendType.NUMPY", in messages
        return self.value


class KernelBackend:
    """Base class for kernel backends; subclasses implement the kernels.

    Attributes
    ----------
    name:
        The :class:`BackendType` this implementation registers as.
    exact:
        True when the backend must match the reference kernels bit for bit
        (the verification gate uses ``tobytes`` equality); False holds it
        to ``np.allclose`` tolerance instead (see
        :func:`repro.backends.registry.verify_backend`).
    """

    name: BackendType = BackendType.NUMPY
    exact: bool = True

    # ------------------------------------------------------------------
    def replay(self, ws, shard, p, q, rows, cols, vals, lr, lam_p, lam_q,
               *, san=None, wid: int = 0, epoch: int = 0) -> int:
        """One epoch of ``shard`` (a :class:`~repro.sched.plan.PlanShard`
        or a whole :class:`~repro.sched.plan.EpochPlan`) over the data
        arrays; returns the updates made. ``ws`` is the caller's private
        :class:`~repro.core.kernels.WaveWorkspace`; a sanitizer ``san``
        observes worker ``wid``'s epoch ``epoch`` as in
        :func:`replay_waves`.
        """
        raise NotImplementedError

    def serial_update(self, p, q, rows, cols, vals, lr, lam_p, lam_q,
                      max_wave: int = 64, workspace=None):
        """Serial SGD over one worker's samples, in order (see
        :func:`repro.core.kernels.sgd_serial_update`)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name.value} exact={self.exact}>"


def replay_waves(ws, wave_update, shard, p, q, rows, cols, vals,
                 lr, lam_p, lam_q, *, san=None, wid: int = 0,
                 epoch: int = 0) -> int:
    """One epoch of a plan shard through a per-wave kernel; returns the
    updates made. The only Python loop over an epoch's waves: numpy's
    :meth:`~KernelBackend.replay` (and ``c``'s fallbacks) and AdaGrad's
    own wave. One ``bind_plan`` gather, then one ``wave_update`` launch
    per wave over its live lanes (padding only trims from the right). A
    sanitizer ``san`` checks worker ``wid``'s epoch ``epoch`` at one
    branch per wave: in numeric mode the fp64-leak probe on the first wave
    and a residual check on one wave in ``sample_stride``; in race mode
    one O(1) record of the bound views after the loop (the caller seals
    the log before the next bind regathers them).
    """
    rows_w, cols_w, vals_w = ws.bind_plan(shard, rows, cols, vals)
    width = shard.width
    sentry = san.numeric if san is not None and san.check_numeric else None
    san_stride = sentry.sample_stride if sentry is not None else 1
    updates = 0
    with np.errstate(**UPDATE_ERRSTATE):
        for i, (wr, wc, wv, w) in enumerate(
            zip(rows_w, cols_w, vals_w, shard.lengths.tolist())
        ):
            if w != width:
                if not w:
                    continue
                wr = wr[:w]
                wc = wc[:w]
                wv = wv[:w]
            err = wave_update(p, q, wr, wc, wv, lr, lam_p, lam_q)
            updates += w
            if sentry is not None and not i % san_stride:
                if not i:
                    sentry.check_dtypes(p, q, err, wid, epoch)
                sentry.check_wave(err, wid, epoch, i)
    if san is not None:
        san.epoch_executed(rows_w, cols_w, shard.lengths, wid=wid, epoch=epoch)
    return updates
