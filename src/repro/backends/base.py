"""Kernel-backend contract: one wave/shard/serial kernel family per backend.

The reference SGD kernels (:mod:`repro.core.kernels`) are vectorized NumPy
with explicit Hogwild race semantics — snapshot gathers, last-writer-wins
scatters — and every convergence and bit-identity claim in the repo anchors
on them.  A :class:`KernelBackend` packages one alternative implementation
of exactly that contract:

* :meth:`KernelBackend.replay` — one epoch of one worker's plan shard (or a
  whole :class:`~repro.sched.plan.EpochPlan`), the unit every executor
  launches when no per-wave observer is attached.  The base implementation
  is :func:`replay_waves`, the Python wave loop over :meth:`bind`; the
  compiled ``c`` backend replaces it with one GIL-free foreign call;
* :meth:`KernelBackend.bind` — given the caller's
  :class:`~repro.core.kernels.WaveWorkspace`, the per-wave callable the
  observed paths (sanitizer wrappers, kernel hooks, collision tracking)
  invoke wave by wave.  The NumPy backend returns the workspace's own bound
  method, so dispatching through the registry is *structurally* identical
  to the pre-registry code path — same callable, same bits;
* :meth:`KernelBackend.serial_update` — serial SGD over one worker's
  samples in order, the unit the out-of-core block loop launches per
  block (NumPy: conflict-free segments; ``c``: one foreign call).

``exact`` declares the verification gate: exact backends must reproduce the
reference kernels bit for bit (``tobytes`` equality); accelerated backends
(different summation order, fused arithmetic) are held to a numerical
tolerance instead.  :func:`repro.backends.registry.get_backend` runs the
gate before handing a backend out.

:func:`estimate_memory_bytes` is the shared sizing model the auto-policy
and device-backed backends consult before committing to a configuration.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.core.kernels import UPDATE_ERRSTATE

__all__ = ["BackendType", "KernelBackend", "estimate_memory_bytes",
           "replay_waves"]


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
        """Return the per-wave callable the observed epoch loops invoke.

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
                 lr, lam_p, lam_q) -> int:
    """One epoch of a plan shard through a per-wave kernel; returns the
    updates made. One ``bind_plan`` gather, then one ``wave_update`` launch
    per wave over its live lanes (padding only trims from the right) — the
    base :meth:`KernelBackend.replay` and the loop observed executors run
    with a wrapped kernel.
    """
    rows_w, cols_w, vals_w = ws.bind_plan(shard, rows, cols, vals)
    width = shard.width
    updates = 0
    with np.errstate(**UPDATE_ERRSTATE):
        for wr, wc, wv, w in zip(rows_w, cols_w, vals_w, shard.lengths.tolist()):
            if w != width:
                if not w:
                    continue
                wr = wr[:w]
                wc = wc[:w]
                wv = wv[:w]
            wave_update(p, q, wr, wc, wv, lr, lam_p, lam_q)
            updates += w
    return updates


def estimate_memory_bytes(
    m: int,
    n: int,
    k: int,
    nnz: int,
    *,
    workers: int = 128,
    n_workers: int = 1,
    half_precision: bool = False,
) -> int:
    """Working-set estimate (bytes) for one training run.

    Counts the factor matrices, the COO rating arrays, the compiled epoch
    plan (padded index matrix + the wave-major gather buffers each worker's
    workspace materializes), and per-worker kernel scratch. Intentionally a
    ceiling-flavoured estimate: the auto-policy and device backends use it
    to *decline* configurations, so overcounting a few percent is the safe
    direction.
    """
    itemsize = 2 if half_precision else 4
    factors = (m + n) * k * itemsize
    # COO arrays: int32 row + int32 col + float32 value
    data = nnz * (4 + 4 + 4)
    span = workers * 256  # plan padding rounds nnz up to a chunk-group
    padded = -(-max(nnz, 1) // span) * span
    plan = padded * 8  # int64 index matrix
    # wave-major gathers (intp rows + intp cols + f32 vals) per workspace
    gathers = padded * (np.dtype(np.intp).itemsize * 2 + 4)
    # kernel scratch: 5 (w, k) fp32 temporaries + the error vector
    scratch = workers * (5 * k + 1) * 4
    return int(factors + data + plan + max(1, n_workers) * (gathers + scratch))
