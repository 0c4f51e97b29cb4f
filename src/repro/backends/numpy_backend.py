"""The NumPy reference backend — the bit-exact anchor of the registry.

This backend *is* :mod:`repro.core.kernels`: every method delegates to the
reference kernels, and :meth:`NumpyBackend.bind` returns the caller's own
``WaveWorkspace.wave_update`` bound method. Dispatching an executor through
``get_backend("numpy")`` therefore runs the exact callable the executor
invoked before the registry existed — same allocation-free scratch, same
operation order, same bits (the registry's verification gate pins this with
``tobytes`` equality on every ``get_backend`` resolution).
"""

from __future__ import annotations

from repro.backends.base import BackendType, KernelBackend
from repro.core.kernels import sgd_serial_update

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Reference kernels, re-exported behind the backend contract."""

    name = BackendType.NUMPY
    exact = True

    def bind(self, workspace):
        """The workspace's own bound wave kernel — zero dispatch overhead."""
        return workspace.wave_update

    def serial_update(self, p, q, rows, cols, vals, lr, lam_p, lam_q,
                      max_wave=64, workspace=None):
        return sgd_serial_update(p, q, rows, cols, vals, lr, lam_p, lam_q,
                                 max_wave=max_wave, workspace=workspace)
