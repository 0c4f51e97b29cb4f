"""Kernel-backend contract: one wave/shard/serial kernel family per backend.

The reference SGD kernels (:mod:`repro.core.kernels`) are vectorized NumPy
with explicit Hogwild race semantics — snapshot gathers, last-writer-wins
scatters — and every convergence and bit-identity claim in the repo anchors
on them.  A :class:`KernelBackend` packages one alternative implementation
of exactly that contract:

* :meth:`KernelBackend.replay` — one epoch of one worker's plan shard (or a
  whole :class:`~repro.sched.plan.EpochPlan`), the unit every executor
  launches when nothing observes single waves.  The base implementation
  is :func:`replay_waves`, the Python wave loop over :meth:`bind`; the
  compiled ``c`` backend replaces it with one GIL-free foreign call;
* :meth:`KernelBackend.bind` — given the caller's
  :class:`~repro.core.kernels.WaveWorkspace`, the per-wave callable
  :func:`replay_waves` invokes when kernel hooks or a sanitizer observe
  the epoch.  The NumPy backend returns the workspace's own bound method,
  so dispatching through the registry is *structurally* identical to the
  pre-registry code path — same callable, same bits;
* :meth:`KernelBackend.serial_update` — serial SGD over one worker's
  samples in order, the unit the out-of-core block loop launches per
  block (NumPy: conflict-free segments; ``c``: one foreign call).

``exact`` declares the verification gate: exact backends must reproduce the
reference kernels bit for bit (``tobytes`` equality); accelerated backends
(different summation order, fused arithmetic) are held to a numerical
tolerance instead.  :func:`repro.backends.registry.get_backend` runs the
gate before handing a backend out.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.core.kernels import UPDATE_ERRSTATE
from repro.obs.hooks import KernelEvent, resolve_kernel_stride

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
    def replay(self, ws, shard, p, q, rows, cols, vals, lr, lam_p, lam_q) -> int:
        """One epoch of ``shard`` (a :class:`~repro.sched.plan.PlanShard`
        or a whole :class:`~repro.sched.plan.EpochPlan`) over the data
        arrays; returns the updates made. ``ws`` is the caller's private
        workspace. The base implementation is :func:`replay_waves` over
        :meth:`bind`, so the NumPy backend replays bit for bit as the
        executors' own wave loops did.
        """
        return replay_waves(ws, self.bind(ws), shard, p, q, rows, cols,
                            vals, lr, lam_p, lam_q)

    def bind(self, workspace):
        """Return the per-wave callable :func:`replay_waves` invokes.

        The callable's signature is
        ``f(p, q, rows, cols, vals, lr, lam_p, lam_q) -> err``. ``workspace``
        is the caller's (thread-/process-private)
        :class:`~repro.core.kernels.WaveWorkspace`.
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
                 lr, lam_p, lam_q, *, hooks=None, name: str = "hogwild.wave",
                 san=None, wid: int = 0, epoch: int = 0) -> int:
    """One epoch of a plan shard through a per-wave kernel; returns the
    updates made. The only Python loop over an epoch's waves: one
    ``bind_plan`` gather, then one ``wave_update`` launch per wave over its
    live lanes (padding only trims from the right).

    The observers are optional, and each costs one branch per wave:

    * ``hooks`` (active :class:`~repro.obs.hooks.TrainerHooks`) receive one
      :class:`~repro.obs.hooks.KernelEvent` called ``name`` per
      ``kernel_stride`` waves, with the exact updates and waves it stands
      for and the last wave's coordinates (the Eq. 6 sample), plus one for
      the tail the stride left over;
    * a sanitizer ``san`` checks worker ``wid``'s epoch ``epoch``: in
      numeric mode the fp64-leak probe on the first wave and a residual
      check on one wave in ``sample_stride``; in race mode one O(1) record
      of the bound views after the loop (the caller seals the log before
      the next bind regathers them).
    """
    rows_w, cols_w, vals_w = ws.bind_plan(shard, rows, cols, vals)
    width = shard.width
    observe = hooks is not None and hooks.active
    stride = resolve_kernel_stride(hooks) if observe else 1
    pending_waves = pending_updates = 0
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
            if observe:
                pending_waves += 1
                pending_updates += w
                if pending_waves == stride:
                    hooks.on_kernel(KernelEvent(
                        name=name, n_updates=pending_updates,
                        rows=wr.copy(), cols=wc.copy(),  # lint: hotpath-alloc -- one copy per kernel_stride waves, only while a collector listens
                        n_waves=pending_waves,
                    ))
                    pending_waves = pending_updates = 0
    if pending_waves:  # tail waves the stride window did not flush
        hooks.on_kernel(KernelEvent(name=name, n_updates=pending_updates,
                                    n_waves=pending_waves))
    if san is not None:
        san.epoch_executed(rows_w, cols_w, shard.lengths, wid=wid, epoch=epoch)
    return updates
