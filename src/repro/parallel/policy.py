"""Auto-policy: pick an executor and a kernel backend per problem and host.

``train --executor auto`` has one promise — **never lose to serial** — and
this module is where that promise is enforced. The shipped
BENCH_parallel.json is the cautionary tale: threads at 0.42x of serial on
a 1-core container, because the executor was hardcoded while the host had
no silicon to parallelize on (HOGWILD!'s lock-free win only materializes
once per-worker compute dominates coordination, which needs real cores).
The policy therefore treats *serial as the null hypothesis* and demands
measured evidence before rejecting it:

1. ``cpu_count <= 1`` — serial, unconditionally (coordination cannot pay).
2. ``nnz < SMALL_NNZ`` — serial (thread dispatch/join overhead is fixed;
   small problems never amortize it, whatever the core count).
3. Otherwise threads are picked only when **evidence** — this host's
   measured ``threads_vs_serial`` ratio, either passed directly
   (bench_parallel passes the ratio it just measured) or recovered from the
   perf ledger's latest comparable entry — shows them beating serial by
   :data:`PARALLEL_MARGIN`. Ledger entries from oversubscribed runs (more
   workers than cores) are ignored: their ratios measure contention, not
   capacity.

Backend choice is size-aware: the compiled ``c`` kernel costs a cached
load plus verification in every process (and one compile per host), so it
needs ``nnz >= C_MIN_NNZ`` to amortize; below that (or without a C
compiler) the NumPy reference wins.

Decisions publish to the ambient metrics registry
(``repro.policy.executor_selected`` / ``repro.backend.selected``) so runs
record *why* they ran the way they did.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ExecutorChoice",
    "SMALL_NNZ",
    "C_MIN_NNZ",
    "PARALLEL_MARGIN",
    "choose_backend",
    "choose_executor",
    "evidence_from_ledger",
    "publish_choice",
]

#: below this nnz, coordination overhead dominates any parallel win
SMALL_NNZ = 200_000

#: below this nnz, loading the c kernel costs more than it saves in one
#: epoch: a cached load plus verification measured ~20 ms, and the kernel
#: saves ~380 ns per update (numpy ~450 vs c ~70 ns on netflix-syn, k=32,
#: 2-vCPU x86 host), so 20 ms / 380 ns ~ 50k updates
C_MIN_NNZ = 50_000

#: a parallel executor must beat serial by this measured factor before the
#: policy will pick it (protects the >= 1.0 auto_vs_serial acceptance bar
#: against ratio noise around 1.0)
PARALLEL_MARGIN = 1.05


@dataclass(frozen=True)
class ExecutorChoice:
    """One resolved auto-policy decision, with its audit trail."""

    executor: str  # "serial" | "threads"
    n_workers: int
    backend: str  # resolved backend name ("numpy" or "c")
    reason: str

    def as_dict(self) -> dict:
        return {
            "executor": self.executor,
            "n_workers": self.n_workers,
            "backend": self.backend,
            "reason": self.reason,
        }


def choose_backend(nnz: int, k: int, requested: str = "auto") -> tuple[str, str]:
    """Resolve a backend name for this problem size.

    Returns ``(name, reason)``. An explicit request passes through
    untouched (``get_backend`` still gates and falls back); ``"auto"``
    picks ``c`` when a C compiler is present and the problem is big enough
    to amortize loading the kernel, else the NumPy reference.
    """
    if requested not in (None, "auto"):
        return str(requested), "requested explicitly"
    from repro.backends import BackendType, available_backends

    if BackendType.C not in available_backends():
        return BackendType.NUMPY.value, "no accelerated backend available"
    if nnz < C_MIN_NNZ:
        return (
            BackendType.NUMPY.value,
            f"nnz={nnz} < {C_MIN_NNZ}: too small to amortize loading the "
            "c kernel",
        )
    return (
        BackendType.C.value,
        f"c present and nnz={nnz} >= {C_MIN_NNZ} amortizes loading it",
    )


def evidence_from_ledger(ledger, cpu_count: int,
                         backend: str | None = None) -> dict | None:
    """Latest usable parallel-bench ratio from a perf ledger, or None.

    Usable means: a ``benchmark == "parallel"`` entry recorded on a host
    with the same ``cpu_count`` (speedup is a property of the silicon),
    with the same kernel ``backend`` when one is given (entries before the
    backend was recorded ran numpy), and not flagged ``oversubscribed``.
    The newest such entry wins.
    """
    if ledger is None:
        return None
    match = None
    for entry in ledger.entries():
        if entry.get("benchmark") != "parallel":
            continue
        metrics = entry.get("metrics", {})
        meta = entry.get("meta", {})
        if meta.get("cpu_count") != cpu_count:
            continue
        if backend is not None and \
                entry.get("config", {}).get("backend", "numpy") != backend:
            continue
        if metrics.get("oversubscribed"):
            continue
        match = entry
    if match is None:
        return None
    metrics = match["metrics"]
    out = {}
    value = metrics.get("threads_vs_serial")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        out["threads_vs_serial"] = float(value)
    n_threads = match.get("config", {}).get("n_threads")
    if isinstance(n_threads, int):
        out["n_threads"] = n_threads
    return out or None


def choose_executor(
    nnz: int,
    k: int,
    *,
    cpu_count: int | None = None,
    backend: str = "auto",
    evidence: dict | None = None,
    ledger=None,
) -> ExecutorChoice:
    """Resolve ``--executor auto`` for one training run.

    ``evidence`` is a mapping with the measured ``threads_vs_serial``
    ratio (and optionally ``n_threads``) for *this* host; when absent it is
    recovered from ``ledger`` via :func:`evidence_from_ledger`. No evidence
    means serial — auto never gambles on an unmeasured host.
    """
    if cpu_count is None:
        import os

        cpu_count = os.cpu_count() or 1
    backend_name, backend_reason = choose_backend(nnz, k, backend)

    def serial(reason: str) -> ExecutorChoice:
        return ExecutorChoice("serial", 1, backend_name, reason)

    if cpu_count <= 1:
        return serial(f"cpu_count={cpu_count}: parallelism cannot beat serial")
    if nnz < SMALL_NNZ:
        return serial(
            f"nnz={nnz} < {SMALL_NNZ}: too small to amortize worker "
            "coordination"
        )
    if evidence is None:
        evidence = evidence_from_ledger(ledger, cpu_count, backend_name)
    if not evidence:
        return serial(
            "no measured evidence (bench ratio or perf-ledger entry for "
            f"cpu_count={cpu_count}) that threads beat serial"
        )
    ratio = evidence.get("threads_vs_serial", 0.0)
    if ratio < PARALLEL_MARGIN:
        return serial(
            f"measured threads_vs_serial={ratio:.2f} below the "
            f"{PARALLEL_MARGIN}x margin"
        )
    n_workers = int(evidence.get("n_threads") or min(cpu_count, 4))
    n_workers = max(2, min(n_workers, cpu_count))
    return ExecutorChoice(
        "threads", n_workers, backend_name,
        f"measured threads_vs_serial={ratio:.2f} >= {PARALLEL_MARGIN}x "
        f"on a cpu_count={cpu_count} host ({backend_reason})",
    )


def publish_choice(choice: ExecutorChoice) -> None:
    """Record the decision in the ambient metrics registry (no-op without
    an active collector)."""
    from repro.obs.context import active_registry

    registry = active_registry()
    if registry is None:
        return
    from repro.backends import available_backends
    from repro.obs.registry import M

    registry.counter(
        M.POLICY_EXECUTOR_SELECTED, {"executor": choice.executor}
    ).inc()
    registry.counter(
        M.BACKEND_SELECTED,
        {"backend": choice.backend, "executor": choice.executor},
    ).inc()
    for btype in available_backends():
        registry.gauge(M.BACKEND_AVAILABLE, {"backend": btype.value}).set(1)
