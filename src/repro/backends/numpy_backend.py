"""The NumPy reference backend — the bit-exact anchor of the registry.

This backend *is* :mod:`repro.core.kernels`: :meth:`NumpyBackend.replay`
runs :func:`~repro.backends.base.replay_waves` over the caller's own
``WaveWorkspace.wave_update`` bound method, and
:meth:`NumpyBackend.serial_update` is
:func:`~repro.core.kernels.sgd_serial_update`. Dispatching an executor
through ``get_backend("numpy")`` therefore runs the exact callable the
executor invoked before the registry existed — same allocation-free
scratch, same operation order, same bits (the registry's verification gate
pins this with ``tobytes`` equality on every ``get_backend`` resolution).
"""

from __future__ import annotations

from repro.backends.base import BackendType, KernelBackend, replay_waves
from repro.core.kernels import sgd_serial_update

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Reference kernels, re-exported behind the backend contract."""

    name = BackendType.NUMPY
    exact = True

    def replay(self, ws, shard, p, q, rows, cols, vals, lr, lam_p, lam_q,
               *, san=None, wid: int = 0, epoch: int = 0) -> int:
        """The Python wave loop over the workspace's own wave kernel."""
        return replay_waves(ws, ws.wave_update, shard, p, q, rows, cols,
                            vals, lr, lam_p, lam_q, san=san, wid=wid,
                            epoch=epoch)

    def serial_update(self, p, q, rows, cols, vals, lr, lam_p, lam_q,
                      max_wave=64, workspace=None):
        return sgd_serial_update(p, q, rows, cols, vals, lr, lam_p, lam_q,
                                 max_wave=max_wave, workspace=workspace)
