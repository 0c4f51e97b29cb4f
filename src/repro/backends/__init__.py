"""Pluggable SGD kernel backends.

One training run, two kernel implementations: the vectorized NumPy
reference (:mod:`repro.core.kernels`, bit-exact, always present) and the
fused C kernel the local compiler builds on first use
(:mod:`repro.backends.c_backend`), registered behind a presence probe and
a correctness gate against the reference. Executors resolve a backend once
per fit through :func:`get_backend` and replay each plan shard through it;
the default (``None``) resolves to the NumPy reference, so existing
bit-identity contracts are untouched unless a caller opts in.

See ``docs/PERFORMANCE.md`` (backend matrix) and
:mod:`repro.parallel.policy` for how ``--executor auto`` picks a backend
per problem size.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "base": ("BackendType", "KernelBackend", "replay_waves"),
    "registry": ("BackendUnavailable", "BackendVerificationError",
                 "available_backends", "backend_status", "get_backend",
                 "verify_backend"),
})
