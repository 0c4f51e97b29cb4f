"""Numeric sanitizer: sampled NaN/Inf/overflow/fp64-leak checks.

The kernels deliberately run under ``UPDATE_ERRSTATE`` (overflow and
invalid silenced) so divergence experiments can *observe* blow-ups rather
than crash. That contract makes silent corruption possible everywhere
else — which is exactly what this sentry, opt-in via ``--sanitize``,
turns back into a hard, located error:

* one wave in every ``sample_stride`` of each worker's epoch has its
  error vector checked for non-finite values and overflow-risk magnitudes;
* at each epoch end the executors hand the full P/Q matrices over for a
  deterministic non-finite sweep (so an injected NaN is caught on the
  epoch it appears, regardless of sampling);
* the first wave per (worker, epoch) verifies no fp64 leaked into the
  fp32 kernel path (factors and error vector dtype);
* out-of-core staging verifies each block's ratings are finite before
  compute consumes them.

All failures raise :class:`~repro.san.errors.SanitizerError` with the
offending wave coordinates.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.san.errors import SanitizerError

__all__ = ["NumericSentry"]

#: |err| beyond this is treated as imminent fp32 overflow (float32 max is
#: ~3.4e38; update magnitudes in a healthy run stay within rating scale)
DEFAULT_ERR_LIMIT = 1e6

#: check one in this many kernel calls per worker (epoch-end sweeps make
#: detection deterministic regardless; sampling bounds the hot-path cost)
DEFAULT_SAMPLE_STRIDE = 16


class NumericSentry:
    """Sampled numeric checks over kernel outputs and gradient magnitudes.

    Thread-safe by construction: per-wave state lives in each worker's
    own :func:`~repro.backends.base.replay_waves` frame; this object only
    accumulates counters under a lock on the (sampled) slow path.
    """

    def __init__(
        self,
        err_limit: float = DEFAULT_ERR_LIMIT,
        sample_stride: int = DEFAULT_SAMPLE_STRIDE,
    ) -> None:
        if sample_stride < 1:
            raise ValueError(
                f"sample_stride must be >= 1, got {sample_stride}"
            )
        self.err_limit = float(err_limit)
        self.sample_stride = int(sample_stride)
        self.wave_checks = 0
        self.model_checks = 0
        self.block_checks = 0
        self.max_abs_err = 0.0
        self._lock = threading.Lock()

    # -- kernel-output checks (sampled) ---------------------------------
    def check_wave(
        self, err: np.ndarray, wid: int, epoch: int, wave: int
    ) -> None:
        """Check one wave's error vector (the kernel's residual output).

        Hot path: ndarray method reductions (no ``np.abs`` temporary, no
        ufunc-dispatch wrappers) and one combined guard — ``peak <=
        err_limit`` is False for NaN, +Inf and overflow alike, so the
        healthy case pays a single comparison.
        """
        if err is None:  # backend that does not expose residuals
            return
        if err.size:
            hi, lo = float(err.max()), float(err.min())
            peak = hi if hi >= -lo else -lo
        else:
            peak = 0.0
        with self._lock:
            self.wave_checks += 1
            if peak > self.max_abs_err:
                self.max_abs_err = peak
        if not peak <= self.err_limit:  # NaN, Inf or overflow
            if peak != peak or peak == float("inf"):
                raise SanitizerError(
                    "numeric-nonfinite",
                    "non-finite kernel residual (NaN/Inf reached the "
                    "update)",
                    worker=wid, epoch=epoch, wave=wave,
                )
            raise SanitizerError(
                "numeric-overflow",
                f"kernel residual magnitude {peak:.3e} exceeds the "
                f"overflow guard {self.err_limit:.1e}",
                worker=wid, epoch=epoch, wave=wave,
            )

    def check_dtypes(
        self, p: np.ndarray, q: np.ndarray, err, wid: int, epoch: int
    ) -> None:
        """fp64-leak check, run once per (worker, epoch)."""
        for name, arr in (("P", p), ("Q", q), ("err", err)):
            if arr is not None and arr.dtype == np.dtype("float64"):
                raise SanitizerError(
                    "numeric-fp64-leak",
                    f"{name} is float64 — fp64 leaked into the fp32 "
                    "kernel path",
                    worker=wid, epoch=epoch, wave=0,
                )

    # -- epoch-end model sweep (deterministic) --------------------------
    def check_model(
        self, p: np.ndarray, q: np.ndarray, wid: int = 0,
        epoch: int | None = None,
    ) -> None:
        """Full non-finite sweep of both factor matrices."""
        with self._lock:
            self.model_checks += 1
        for name, arr in (("P", p), ("Q", q)):
            finite = np.isfinite(arr).all(axis=1)
            if not finite.all():
                bad = np.flatnonzero(~finite)
                raise SanitizerError(
                    "numeric-nonfinite",
                    f"{name} holds non-finite factors in {len(bad)} row(s) "
                    f"(first: {int(bad[0])})",
                    worker=wid, epoch=epoch,
                )

    # -- staged-data check (out-of-core) --------------------------------
    def check_block(
        self, vals: np.ndarray, coords: tuple, wid: int = 0
    ) -> None:
        """Verify a staged block's rating values before compute eats them."""
        with self._lock:
            self.block_checks += 1
        if vals.size and not np.isfinite(vals).all():
            raise SanitizerError(
                "numeric-nonfinite",
                f"staged block {coords} holds non-finite rating values",
                worker=wid,
            )

    def as_dict(self) -> dict:
        return {
            "wave_checks": self.wave_checks,
            "model_checks": self.model_checks,
            "block_checks": self.block_checks,
            "max_abs_err": self.max_abs_err,
            "err_limit": self.err_limit,
            "sample_stride": self.sample_stride,
        }
