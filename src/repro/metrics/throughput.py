"""Throughput metrics: Eq. 7 (#Updates/s) and effective memory bandwidth.

The paper reports throughput as ``#Updates/s = (#Iterations x N) / elapsed``
and converts it to *effective memory bandwidth* (the data processed by the
compute units per second — footnote 2 notes this can exceed the theoretical
off-chip bandwidth thanks to caches).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.flops import bytes_per_update

__all__ = ["updates_per_second", "effective_bandwidth", "ThroughputRecord"]


def updates_per_second(iterations: int, nnz: int, elapsed_seconds: float) -> float:
    """Eq. 7 exactly: ``iterations * nnz / elapsed``."""
    if elapsed_seconds <= 0:
        raise ValueError(f"elapsed time must be positive, got {elapsed_seconds}")
    if iterations < 0 or nnz < 0:
        raise ValueError("iterations and nnz must be non-negative")
    return iterations * nnz / elapsed_seconds


def effective_bandwidth(
    updates_per_sec: float, k: int, feature_bytes: int = 4
) -> float:
    """Bytes/s processed by the compute units at the given update rate."""
    return updates_per_sec * bytes_per_update(k, feature_bytes=feature_bytes)


@dataclass(frozen=True)
class ThroughputRecord:
    """One measured/modelled throughput point (one bar in Figs. 5/7/10/11)."""

    solver: str
    dataset: str
    workers: int
    updates_per_sec: float
    k: int
    feature_bytes: int = 4

    @property
    def bandwidth_gbs(self) -> float:
        """Effective memory bandwidth in GB/s."""
        return effective_bandwidth(self.updates_per_sec, self.k, self.feature_bytes) / 1e9

    @property
    def musec(self) -> float:
        """Millions of updates per second (the y-axis unit of Fig. 5/7)."""
        return self.updates_per_sec / 1e6

    @classmethod
    def from_history(
        cls,
        history,
        nnz: int,
        *,
        elapsed_seconds: float | None = None,
        solver: str = "cuMF_SGD",
        dataset: str = "",
        workers: int = 0,
        k: int = 0,
        feature_bytes: int = 4,
    ) -> "ThroughputRecord":
        """Eq. 7 over a recorded :class:`repro.core.trainer.TrainHistory`.

        ``iterations`` is the number of recorded epochs; ``elapsed_seconds``
        defaults to the history's own per-epoch wall times (which every
        solver's ``fit`` records), so experiments no longer recompute
        ``iterations * nnz / elapsed`` inline.
        """
        iterations = len(history.epochs)
        if elapsed_seconds is None:
            elapsed_seconds = float(sum(history.epoch_seconds))
            if elapsed_seconds <= 0:
                raise ValueError(
                    "history carries no epoch wall times; pass elapsed_seconds "
                    "(every solver's fit records them; only a history built "
                    "by hand lacks them)"
                )
        return cls(
            solver=solver,
            dataset=dataset,
            workers=workers,
            updates_per_sec=updates_per_second(iterations, nnz, elapsed_seconds),
            k=k,
            feature_bytes=feature_bytes,
        )
