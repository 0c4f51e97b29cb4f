"""Compiled C backend: the fused wave kernel of ``c_kernel.c``.

The paper's kernel does each update in one pass with the features held in
registers (§4).  The NumPy reference instead makes about fourteen passes
over five ``(w, k)`` temporaries per wave, holding the GIL throughout, so
Hogwild! threads never overlap.  This backend compiles ``c_kernel.c`` with
the local C compiler on first use and calls it through :mod:`ctypes`, which
releases the GIL for the length of every call. It has two entry points:

* :meth:`CBackend.replay` runs a whole plan shard — every wave of one
  worker's epoch — in one foreign call. The kernel stages one group of
  ``workers·f`` positions at a time straight from the plan's shuffled
  ``order`` and the :class:`~repro.data.container.RatingMatrix`'s own
  int32/fp32 arrays into small workspace scratch, so no wave-major plan
  matrix and no gathered copy of the ids or ratings is built. A sanitized
  epoch is the same call, which also reports the residual peaks of the
  waves a numeric sanitizer samples;
* :meth:`CBackend.serial_update` runs one worker's samples as plain serial
  SGD, in order, in one foreign call (an out-of-core block, say).

Both keep the reference race semantics (snapshot gather, then a
lane-order last-writer-wins scatter).  The dot product sums in a
different fixed order, so the backend is tolerance-gated
(``exact = False``).

Build and cache
---------------
``cc -O3 -ffp-contract=off -fPIC -shared``, plus ``-mf16c`` when the CPU
reports F16C, so fp16 storage converts in hardware (soft-float conversion
is slower than NumPy; without F16C, fp16 models keep the NumPy kernel).
The kernel converts fp16 rows through F16C intrinsics, eight features per
instruction plus a scalar tail for ``k mod 8``. gcc 12 does not vectorise
a plain C conversion loop with F16C alone, and one scalar conversion per
feature cost 154–185 ns per update on a netflix-syn epoch (k = 32, 2-vCPU
x86); the intrinsics take 24–40 ns, about the fp32 kernel's speed. The
8-wide update keeps the reference's operation order and every narrowing
rounds by MXCSR, so the stored factors are byte-identical to those of a
kernel that converts one feature at a time.
The shared object is cached under :func:`cache_dir` (outside the working
tree), named by a hash of the source, the flags and the compiler's version,
and published with an atomic :func:`os.replace`, so processes compiling
into an empty cache at once each load a complete file.  A cold build took
about 0.4 s on a 2-vCPU x86 host. In a fresh ``train`` there, a cached
load (``CBackend()``) took 2–3 ms and its verification 2–3 ms, after 6–7
ms to import this module and the modules it imports.

Safety
------
The kernel trusts what it is given, so every launch first rejects factors
that are not C-contiguous fp32 (or fp16) and ratings that are not fp32
(:class:`ValueError`), and row/column ids outside the model
(:class:`IndexError`).  :meth:`CBackend.replay` checks the ids once per
data array pair (:meth:`~repro.core.kernels.WaveWorkspace.check_ids`),
and the kernel checks every ``order`` entry of the shard against the data
length before its first update (:class:`IndexError`); the serial entry
gets new id arrays every call, so the kernel checks those itself before
it writes anything. The peak buffer holds a slot per sampled wave.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.backends.base import BackendType, KernelBackend, replay_waves
from repro.core.kernels import WaveWorkspace, sgd_serial_update

__all__ = ["CBackend", "build_library", "cache_dir", "find_compiler"]

SOURCE = Path(__file__).with_name("c_kernel.c")
BASE_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
#: environment variable that overrides :func:`cache_dir`
CACHE_ENV = "REPRO_C_CACHE"

_P, _I, _F = ctypes.c_void_p, ctypes.c_int64, ctypes.c_float
_SERIAL_ARGS = [_P, _P, ctypes.c_int, _I, _I, _I, _P, _P, _P, _I, _P, _P, _P,
                _F, _F, _F]
_REPLAY_ARGS = [_P, _P, ctypes.c_int, _I, _P, _P, _P, _I, _P, _I, _I, _I,
                _I, _I, _P, _P, _P, _P, _P, _P, _P, _I, _F, _F, _F]


def find_compiler() -> str | None:
    """Path of the C compiler (``$CC``, else ``cc`` or ``gcc``), or None."""
    for name in (os.environ.get("CC"), "cc", "gcc"):
        path = shutil.which(name) if name else None
        if path:
            return path
    return None


def cpu_has_f16c() -> bool:
    """True when the CPU reports hardware fp16 conversion (Linux only)."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return "f16c" in line.split()
    except OSError:
        pass
    return False


def cache_dir() -> Path:
    """Where compiled kernels live: ``$REPRO_C_CACHE``, else
    ``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "repro"


def build_library(cache: Path | None = None) -> Path:
    """The compiled kernel for this source, flags and compiler, built into
    ``cache`` (default :func:`cache_dir`) unless already there."""
    compiler = find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found ($CC, cc, gcc)")
    flags = BASE_FLAGS + (("-mf16c",) if cpu_has_f16c() else ())
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, check=True).stdout
    source = SOURCE.read_bytes()
    key = hashlib.sha256(
        b"\0".join([source, " ".join(flags).encode(), version.encode()])
    ).hexdigest()[:16]
    cache = cache_dir() if cache is None else Path(cache)
    target = cache / f"cumf_kernel-{key}.so"
    if target.exists():
        return target
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.stem + ".", suffix=".tmp",
                               dir=cache)
    os.close(fd)
    try:
        done = subprocess.run([compiler, *flags, "-o", tmp, str(SOURCE)],
                              capture_output=True, text=True)
        if done.returncode:
            raise RuntimeError(f"{compiler} failed: {done.stderr.strip()}")
        os.replace(tmp, target)  # atomic: readers see no file or all of it
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _check_vals(vals: np.ndarray) -> None:
    if vals.dtype != np.float32:
        raise ValueError(f"the c backend needs fp32 ratings, got {vals.dtype}")


def _coo_layout(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> bool:
    """True for contiguous int32 ids and ratings, the layout the replay
    kernel reads in place."""
    return (rows.dtype == cols.dtype == np.int32 and rows.flags.c_contiguous
            and cols.flags.c_contiguous and vals.flags.c_contiguous)


class CBackend(KernelBackend):
    """The fused C kernel; tolerance-gated against the reference."""

    name = BackendType.C
    exact = False

    def __init__(self) -> None:
        self.path = build_library()
        lib = ctypes.CDLL(str(self.path))  # CDLL calls release the GIL
        lib.cumf_replay.argtypes = _REPLAY_ARGS
        lib.cumf_replay.restype = _I
        lib.cumf_serial.argtypes = _SERIAL_ARGS
        lib.cumf_serial.restype = ctypes.c_int
        lib.cumf_has_fp16.argtypes = []
        lib.cumf_has_fp16.restype = ctypes.c_int
        self._replay = lib.cumf_replay
        self._serial = lib.cumf_serial
        #: fp16 storage runs natively (compiled with F16C)
        self.fp16 = bool(lib.cumf_has_fp16())

    def _storage(self, p: np.ndarray, q: np.ndarray) -> int | None:
        """The kernel's ``half`` flag for these factors (0 fp32, 1 fp16),
        or None when fp16 storage must stay on NumPy (no F16C)."""
        if not (p.dtype == q.dtype and p.dtype in (np.float32, np.float16)
                and p.ndim == q.ndim == 2 and p.shape[1] == q.shape[1]
                and p.flags.c_contiguous and q.flags.c_contiguous):
            raise ValueError(
                "the c backend needs C-contiguous fp32 or fp16 factor "
                f"matrices of equal k, got P {p.dtype}{p.shape} and "
                f"Q {q.dtype}{q.shape}"
            )
        if p.dtype == np.float32:
            return 0
        return 1 if self.fp16 else None

    # ------------------------------------------------------------------
    def replay(self, ws, shard, p, q, rows, cols, vals, lr, lam_p, lam_q,
               *, san=None, wid: int = 0, epoch: int = 0) -> int:
        """Every wave of ``shard`` in one GIL-free foreign call, staged
        group by group from its plan's shuffled ``order`` and the data
        arrays themselves. A sanitizer ``san`` (worker ``wid``'s epoch
        ``epoch``) then checks the sampled waves' residual peaks the
        kernel reported and records the shard's ids. fp16 storage without
        F16C and data not in :class:`~repro.data.container.RatingMatrix`
        layout (contiguous int32 ids) replay on NumPy's wave loop."""
        half = self._storage(p, q)
        if half is not None:
            _check_vals(vals)
            if not len(rows) == len(cols) == len(vals):
                raise ValueError("rows, cols and vals differ in length")
            ws.check_ids(rows, cols, p.shape[0], q.shape[0])
        if half is None or not _coo_layout(rows, cols, vals):
            return replay_waves(ws, ws.wave_update, shard, p, q, rows, cols,
                                vals, lr, lam_p, lam_q, san=san, wid=wid,
                                epoch=epoch)
        plan, lo, hi = shard.plan, shard.col_lo, shard.col_hi
        k = p.shape[1]
        pu, qv, err = ws.kernel_scratch(hi - lo, k)
        srows, scols, svals = ws.stage_scratch(hi - lo, plan.f)
        sentry = san.numeric if san is not None and san.check_numeric else None
        stride = 1 if sentry is None else sentry.sample_stride
        peaks = None if sentry is None else ws.peak_scratch(
            -(-plan.n_waves // stride))  # the kernel's bound, not the shard's
        updates = self._replay(
            p.ctypes.data, q.ctypes.data, half, k,
            rows.ctypes.data, cols.ctypes.data, vals.ctypes.data, len(rows),
            plan.order.ctypes.data, plan.nnz, plan.workers, plan.f, lo, hi,
            srows.ctypes.data, scols.ctypes.data, svals.ctypes.data,
            pu.ctypes.data, qv.ctypes.data, err.ctypes.data,
            None if peaks is None else peaks.ctypes.data, stride,
            lr, lam_p, lam_q,
        )
        if updates < 0:
            raise IndexError(
                f"plan order entries span [{plan.order.min()}, "
                f"{plan.order.max()}], outside the data's [0, {len(rows)})"
            )
        ws.waves += int(np.count_nonzero(shard.lengths))
        if sentry is not None:
            sentry.check_peaks(peaks, shard.lengths, wid, epoch)
        if san is not None and san.check_races:
            rows_w, cols_w, _ = ws.bind_plan(shard, rows, cols, vals)
            san.epoch_executed(rows_w, cols_w, shard.lengths, wid=wid,
                               epoch=epoch)
        return updates

    def serial_update(self, p, q, rows, cols, vals, lr, lam_p, lam_q,
                      max_wave=64, workspace=None):
        """Serial SGD over the samples in order, in one GIL-free foreign
        call. ``max_wave`` sizes only the reference's conflict-free
        segments, which a serial loop does not need; fp16 storage without
        F16C runs :func:`~repro.core.kernels.sgd_serial_update`."""
        half = self._storage(p, q)
        if half is None:
            return sgd_serial_update(p, q, rows, cols, vals, lr, lam_p, lam_q,
                                     max_wave=max_wave, workspace=workspace)
        _check_vals(vals)
        rows = np.ascontiguousarray(rows, dtype=np.intp)  # lint: hotpath-alloc -- one id cast per call, O(n) beside the O(n*k) kernel
        cols = np.ascontiguousarray(cols, dtype=np.intp)  # lint: hotpath-alloc -- one id cast per call, O(n) beside the O(n*k) kernel
        vals = np.ascontiguousarray(vals)  # lint: hotpath-alloc -- packed block records: one O(n) copy per call
        count = len(rows)
        if len(cols) != count or len(vals) != count:
            raise ValueError("rows, cols and vals differ in length")
        ws = workspace if workspace is not None else WaveWorkspace()
        (m, k), n = p.shape, q.shape[0]
        pu, qv, err = ws.kernel_scratch(1, k)
        if self._serial(p.ctypes.data, q.ctypes.data, half, k, m, n,
                        rows.ctypes.data, cols.ctypes.data, vals.ctypes.data,
                        count, pu.ctypes.data, qv.ctypes.data,
                        err.ctypes.data, lr, lam_p, lam_q):
            raise IndexError(
                f"sample ids leave the {m} x {n} model: rows span "
                f"[{rows.min()}, {rows.max()}], columns "
                f"[{cols.min()}, {cols.max()}]"
            )
