"""Backend registry: feature detection, verification gates, fallback.

Backends register lazily — a factory per :class:`BackendType`, instantiated
at most once — behind a presence probe (for ``c``: a C compiler on the
path), so importing this module costs nothing and compiles nothing.
:func:`get_backend` is the one resolution entry point:

1. resolve the request (``"auto"``, a name, a :class:`BackendType`, or an
   already-constructed :class:`KernelBackend`) to a candidate;
2. run the candidate through :func:`verify_backend` — a fixed seeded
   mini-problem replayed against the reference kernels of
   :mod:`repro.core.kernels`, ``tobytes``-equal for ``exact`` backends and
   ``np.allclose`` for accelerated ones (verified once per process, then
   cached);
3. on a missing compiler, failed build, or failed verification: warn
   **once per backend per process** and fall back to the NumPy reference,
   so training never dies because an accelerator is absent.

``"auto"`` at this layer means "the most accelerated backend that is
present and verified" (c > numpy). Size-aware selection — is the problem
big enough to amortize loading the compiled kernel? — lives one level up,
in :func:`repro.parallel.policy.choose_backend`.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.backends.base import BackendType, KernelBackend
from repro.core.kernels import WaveWorkspace, sgd_serial_update, sgd_wave_update
from repro.sched.plan import EpochPlan

__all__ = [
    "BackendUnavailable",
    "BackendVerificationError",
    "available_backends",
    "backend_status",
    "get_backend",
    "verify_backend",
]


class BackendUnavailable(RuntimeError):
    """The requested backend's dependency is missing or unusable."""


class BackendVerificationError(RuntimeError):
    """A backend's kernels disagree with the reference beyond its gate."""


def _c_present() -> bool:
    from repro.backends import c_backend

    return c_backend.find_compiler() is not None


def _make_c() -> KernelBackend:
    from repro.backends.c_backend import CBackend

    return CBackend()


#: backend -> (what it needs, presence probe, factory). NumPy has no entry:
#: it is always available and constructed directly.
_OPTIONAL = {
    BackendType.C: ("a C compiler", _c_present, _make_c),
}

#: ``"auto"`` preference order at the registry layer (most accelerated
#: first); the policy layer narrows this by problem size.
_AUTO_ORDER = (BackendType.C, BackendType.NUMPY)

#: relative/absolute tolerance for non-exact backends: fp32 kernels with a
#: different reduction order drift by a few ULPs per update, not more
_RTOL, _ATOL = 1e-4, 1e-5
#: with fp16 storage that drift can flip a stored value's rounding: allow
#: a few fp16 ULPs (eps16 = 2**-10) instead
_RTOL_FP16 = 4 * float(np.finfo(np.float16).eps)

_instances: dict[BackendType, KernelBackend] = {}
_verified: set[int] = set()
_warned: set[str] = set()


def _warn_once(key: str, message: str) -> None:
    if key in _warned:
        return
    _warned.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _count_fallback(btype: BackendType) -> None:
    """Every fallback lands in the ambient registry (warning is once-only,
    the counter is not); no-op without an active collector."""
    from repro.obs.context import active_registry

    registry = active_registry()
    if registry is not None:
        from repro.obs.registry import M

        registry.counter(M.BACKEND_FALLBACKS, {"backend": btype.value}).inc()


def _present(btype: BackendType) -> bool:
    return btype is BackendType.NUMPY or _OPTIONAL[btype][1]()


def _instantiate(btype: BackendType) -> KernelBackend:
    """Construct (once) the backend instance; raises BackendUnavailable."""
    inst = _instances.get(btype)
    if inst is not None:
        return inst
    if btype is BackendType.NUMPY:
        from repro.backends.numpy_backend import NumpyBackend

        inst = NumpyBackend()
    else:
        needs, present, factory = _OPTIONAL[btype]
        if not present():
            raise BackendUnavailable(
                f"backend {btype.value!r} needs {needs}, which is not "
                "available"
            )
        try:
            inst = factory()
        except Exception as exc:
            raise BackendUnavailable(
                f"backend {btype.value!r} failed to initialize: {exc}"
            ) from exc
    _instances[btype] = inst
    return inst


# ---------------------------------------------------------------------------
# verification gate
# ---------------------------------------------------------------------------
def _verification_problem():
    """Fixed seeded mini-problem with conflict-free waves.

    Rows/cols inside each wave are distinct (sliced from permutations), so
    scatter order cannot distinguish implementations — the gate then tests
    arithmetic, not duplicate-resolution policy (which Hogwild semantics
    leave open for accelerated backends). ``k = 12`` is one 8-wide vector
    body plus a 4-feature tail, so a kernel that splits its rows that way
    is gated on both halves. The waves lie back to back in RatingMatrix
    layout (int32 ids), and the returned plan replays exactly them.
    """
    rng = np.random.default_rng(20260808)
    m, n, k, w, n_waves = 48, 40, 12, 16, 4
    p = rng.standard_normal((m, k)).astype(np.float32)
    q = rng.standard_normal((n, k)).astype(np.float32)
    rows, cols, vals = [], [], []
    for _ in range(n_waves):
        rows.append(rng.permutation(m)[:w].astype(np.int32))
        cols.append(rng.permutation(n)[:w].astype(np.int32))
        vals.append(rng.standard_normal(w).astype(np.float32))
    data = tuple(np.concatenate(parts) for parts in (rows, cols, vals))
    return p, q, data, EpochPlan(np.arange(n_waves * w), w, 1)


def verify_backend(backend: KernelBackend) -> None:
    """Gate ``backend`` against the reference kernels; raises
    :class:`BackendVerificationError` on disagreement.

    With fp32 and with fp16 storage, :meth:`~KernelBackend.replay` runs
    the problem's waves as one plan, and
    :meth:`~KernelBackend.serial_update` as one worker's samples. Exact
    backends must match :func:`sgd_wave_update` / :func:`sgd_serial_update`
    bit for bit; accelerated backends within ``np.allclose`` tolerance.
    Each instance verifies once per process.
    """
    if id(backend) in _verified:
        return
    p0, q0, (rows, cols, vals), plan = _verification_problem()
    lr, lam = 0.05, 0.02

    for dtype in (np.float32, np.float16):
        ref_p, ref_q = p0.astype(dtype), q0.astype(dtype)
        got_p, got_q = p0.astype(dtype), q0.astype(dtype)
        for i in range(plan.n_waves):
            wave = plan.wave_positions(i)
            sgd_wave_update(ref_p, ref_q, rows[wave], cols[wave], vals[wave],
                            lr, lam, lam)
        backend.replay(WaveWorkspace(), plan, got_p, got_q, rows, cols, vals,
                       lr, lam, lam)
        _compare(backend, "replay", ref_p, got_p, ref_q, got_q)

        ref_p, ref_q = p0.astype(dtype), q0.astype(dtype)
        got_p, got_q = p0.astype(dtype), q0.astype(dtype)
        sgd_serial_update(ref_p, ref_q, rows, cols, vals, lr, lam, lam,
                          max_wave=16)
        backend.serial_update(got_p, got_q, rows, cols, vals, lr, lam, lam,
                              max_wave=16)
        _compare(backend, "serial_update", ref_p, got_p, ref_q, got_q)
    _verified.add(id(backend))


def _compare(backend, kernel, ref_p, got_p, ref_q, got_q) -> None:
    rtol = _RTOL if ref_p.dtype == np.float32 else _RTOL_FP16
    if backend.exact:
        ok = (ref_p.tobytes() == got_p.tobytes()
              and ref_q.tobytes() == got_q.tobytes())
        gate = "bit identity"
    else:
        ok = (np.allclose(ref_p, got_p, rtol=rtol, atol=_ATOL)
              and np.allclose(ref_q, got_q, rtol=rtol, atol=_ATOL))
        gate = f"allclose(rtol={rtol:.3g}, atol={_ATOL})"
    if not ok:
        raise BackendVerificationError(
            f"backend {backend.name.value!r} failed the {gate} gate on "
            f"{kernel} ({ref_p.dtype}) against the reference kernels"
        )


# ---------------------------------------------------------------------------
# public resolution API
# ---------------------------------------------------------------------------
def available_backends() -> tuple[BackendType, ...]:
    """Backends whose requirement is present, numpy first. Presence, not
    verification: a present backend can still fail its build or gate and
    fall back at :func:`get_backend`."""
    return tuple(b for b in BackendType if _present(b))


def backend_status() -> dict[str, str]:
    """Human-readable availability map (for CLI/debug output)."""
    status = {}
    for btype in BackendType:
        if not _present(btype):
            status[btype.value] = "missing dependency"
        elif btype in _instances and id(_instances[btype]) in _verified:
            status[btype.value] = "verified"
        else:
            status[btype.value] = "present"
    return status


def _coerce_request(name) -> BackendType | None:
    """None/"auto" -> None (meaning auto); else a BackendType."""
    if name is None:
        return BackendType.NUMPY
    if isinstance(name, BackendType):
        return name
    text = str(name).strip().lower()
    if text == "auto":
        return None
    try:
        return BackendType(text)
    except ValueError:
        raise ValueError(
            f"unknown backend {name!r}; choose from "
            f"{['auto'] + [b.value for b in BackendType]}"
        ) from None


def get_backend(name="auto") -> KernelBackend:
    """Resolve, verify, and return a kernel backend.

    ``name`` may be ``None`` (the NumPy reference — the bit-stable default
    every executor uses unless told otherwise), ``"auto"``, a backend name,
    a :class:`BackendType`, or an existing :class:`KernelBackend` instance
    (verified, then returned as-is). Unavailable or verification-failing
    optional backends warn once per process and fall back to NumPy.
    """
    if isinstance(name, KernelBackend):
        verify_backend(name)
        return name
    requested = _coerce_request(name)
    candidates = _AUTO_ORDER if requested is None else (requested,)
    for btype in candidates:
        if requested is None and not _present(btype):
            continue  # auto mode skips absent backends silently
        try:
            backend = _instantiate(btype)
            verify_backend(backend)
            return backend
        except BackendUnavailable as exc:
            _count_fallback(btype)
            _warn_once(
                f"unavailable:{btype.value}",
                f"{exc}; falling back to the numpy reference backend",
            )
        except BackendVerificationError as exc:
            _count_fallback(btype)
            _warn_once(
                f"verify:{btype.value}",
                f"{exc}; falling back to the numpy reference backend",
            )
    return _instantiate(BackendType.NUMPY)
