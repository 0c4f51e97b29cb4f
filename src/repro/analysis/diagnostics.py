"""Convergence and collision diagnostics.

These quantify the two failure modes the paper studies:

* **collision pressure** (§7.5) — how often a wave of concurrent workers
  touches the same row/column, measured against the analytic expectation;
* **stalls and divergence** (Figs. 13/14) — RMSE curves that plateau far
  above the reference or move upward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.trainer import TrainHistory
from repro.data.container import RatingMatrix
from repro.sched.conflict import collision_fraction, expected_collision_fraction

__all__ = [
    "CollisionProfile",
    "profile_collisions",
    "detect_divergence",
    "ConvergenceComparison",
    "compare_histories",
]


@dataclass(frozen=True)
class CollisionProfile:
    """Measured vs expected collision pressure of one configuration."""

    workers: int
    m: int
    n: int
    measured_mean: float
    measured_max: float
    expected: float
    waves_sampled: int

    @property
    def matches_theory(self) -> bool:
        """Measured mean within 3 percentage points of the analytic value."""
        return abs(self.measured_mean - self.expected) < 0.03


def profile_collisions(
    ratings: RatingMatrix,
    workers: int,
    waves: int = 200,
    seed: int = 0,
) -> CollisionProfile:
    """Sample random waves of ``workers`` samples and measure collisions."""
    if workers <= 0 or waves <= 0:
        raise ValueError("workers and waves must be positive")
    if ratings.nnz < workers:
        raise ValueError(
            f"need at least {workers} samples to form a wave, have {ratings.nnz}"
        )
    rng = np.random.default_rng(seed)
    fracs = np.empty(waves, dtype=np.float64)  # lint: fp64-accumulator -- offline collision statistics
    for w in range(waves):
        idx = rng.choice(ratings.nnz, size=workers, replace=False)
        fracs[w] = collision_fraction(ratings.rows[idx], ratings.cols[idx])
    return CollisionProfile(
        workers=workers,
        m=ratings.n_rows,
        n=ratings.n_cols,
        measured_mean=float(fracs.mean()),
        measured_max=float(fracs.max()),
        expected=expected_collision_fraction(workers, ratings.n_rows, ratings.n_cols),
        waves_sampled=waves,
    )


def detect_divergence(
    history: TrainHistory,
    patience: int = 3,
    stall_tolerance: float = 1e-3,
) -> str:
    """Classify a training curve: ``"converging"``, ``"stalled"``, or
    ``"diverging"``.

    * diverging — NaN appears, or RMSE rises for ``patience`` consecutive
      epochs by at least ``stall_tolerance`` in total;
    * stalled — the last ``patience`` epochs moved RMSE by less than
      ``stall_tolerance`` in total, either way (a slow upward drift, the
      mild overfitting of a long run at a decayed rate, is a stall);
    * converging — otherwise.
    """
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    curve = np.asarray(history.test_rmse, dtype=np.float64)  # lint: fp64-accumulator -- epoch-delta analysis in full precision
    if len(curve) == 0:
        raise ValueError("history has no test RMSE")
    if np.isnan(curve).any():
        return "diverging"
    if len(curve) > patience:
        deltas = np.diff(curve)
        change = curve[-1] - curve[-patience - 1]
        if np.all(deltas[-patience:] > 0) and change >= stall_tolerance:
            return "diverging"
        if abs(change) < stall_tolerance:
            return "stalled"
    return "converging"


@dataclass(frozen=True)
class ConvergenceComparison:
    """Side-by-side summary of several training histories."""

    names: tuple[str, ...]
    final_rmse: dict[str, float]
    best_rmse: dict[str, float]
    epochs_to: dict[str, int | None]
    target: float
    winner: str

    def to_text(self) -> str:
        lines = [f"target RMSE {self.target:.4f}  winner: {self.winner}"]
        for name in self.names:
            reach = self.epochs_to[name]
            lines.append(
                f"  {name:20s} final {self.final_rmse[name]:.4f}  "
                f"best {self.best_rmse[name]:.4f}  "
                f"epochs-to-target {reach if reach is not None else '-'}"
            )
        return "\n".join(lines)


def compare_histories(
    histories: dict[str, TrainHistory], target: float | None = None
) -> ConvergenceComparison:
    """Compare named training runs; the winner reaches ``target`` first
    (ties broken by best RMSE). Default target = the worst best-RMSE, so
    every run can reach it."""
    if not histories:
        raise ValueError("need at least one history")
    for name, hist in histories.items():
        if not hist.test_rmse:
            raise ValueError(f"history {name!r} has no test RMSE")
    if target is None:
        target = max(h.best_test_rmse for h in histories.values()) * 1.0001
    epochs_to = {n: h.epochs_to_target(target) for n, h in histories.items()}
    ranked = sorted(
        histories,
        key=lambda n: (
            epochs_to[n] if epochs_to[n] is not None else float("inf"),
            histories[n].best_test_rmse,
        ),
    )
    return ConvergenceComparison(
        names=tuple(histories),
        final_rmse={n: h.final_test_rmse for n, h in histories.items()},
        best_rmse={n: h.best_test_rmse for n, h in histories.items()},
        epochs_to=epochs_to,
        target=float(target),
        winner=ranked[0],
    )
