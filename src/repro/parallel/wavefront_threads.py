"""Wavefront-update on real OS threads.

The deterministic :class:`repro.core.wavefront.WavefrontScheduler` simulates
wavefront execution in rounds. This executor runs the *actual* protocol:
each worker is an OS thread permanently bound to one grid row, walking its
private column permutation and spinning on the shared
:class:`~repro.sched.column_lock.ColumnLockArray` exactly as a GPU thread
block would on the device-memory lock array (Fig. 6).

Because granted blocks are always row- and column-disjoint, the concurrent
updates are conflict-free — so unlike the threaded Hogwild executor this one
is numerically race-free even under true parallelism (though the update
*order* remains nondeterministic).
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.kernels import sgd_serial_update
from repro.core.lr_schedule import LearningRateSchedule, NomadSchedule
from repro.core.model import FactorModel
from repro.core.trainer import TrainHistory, run_epochs
from repro.data.container import RatingMatrix
from repro.metrics.rmse import rmse
from repro.obs.hooks import TrainerHooks
from repro.sched.column_lock import ColumnLockArray

__all__ = ["ThreadedWavefront"]

#: Shared names worker threads may legitimately mutate, audited by the
#: ``race-shared-write`` lint pass. ``counts`` is write-disjoint (one slot per
#: worker id), ``errors`` relies on list.append being atomic under the GIL,
#: and ``locks`` is the ColumnLockArray whose CAS discipline *is* the
#: synchronization protocol (Fig. 6).
SHARED_WRITE_OK = ("counts", "errors", "locks")


class ThreadedWavefront:
    """Wavefront-update executor with one OS thread per grid row."""

    def __init__(
        self,
        k: int = 32,
        workers: int = 4,
        col_blocks: int | None = None,
        lam: float = 0.05,
        schedule: LearningRateSchedule | None = None,
        seed: int = 0,
        spin_sleep: float = 1e-5,
        scale_factor: float = 1.0,
    ) -> None:
        if k <= 0 or workers <= 0:
            raise ValueError("k and workers must be positive")
        self.k = k
        self.workers = workers
        self.col_blocks = col_blocks or 2 * workers
        if self.col_blocks < 1:
            raise ValueError("col_blocks must be positive")
        self.lam = lam
        self.schedule = schedule or NomadSchedule()
        self.seed = seed
        self.spin_sleep = spin_sleep
        self.scale_factor = scale_factor
        self.model: FactorModel | None = None
        self.history: TrainHistory | None = None
        self.locks: ColumnLockArray | None = None

    # ------------------------------------------------------------------
    def _index_blocks(self, train: RatingMatrix) -> list[list[np.ndarray]]:
        s, c = self.workers, self.col_blocks
        row_edges = np.linspace(0, train.n_rows, s + 1).astype(np.int64)
        col_edges = np.linspace(0, train.n_cols, c + 1).astype(np.int64)
        bi = np.searchsorted(row_edges, train.rows, side="right") - 1
        bj = np.searchsorted(col_edges, train.cols, side="right") - 1
        flat = bi.astype(np.int64) * c + bj
        order = np.argsort(flat, kind="stable")
        bounds = np.searchsorted(flat[order], np.arange(s * c + 1))
        return [
            [order[bounds[i * c + j] : bounds[i * c + j + 1]] for j in range(c)]
            for i in range(s)
        ]

    def run_epoch(
        self,
        model: FactorModel,
        ratings: RatingMatrix,
        lr: float,
        lam_p: float,
        lam_q: float | None = None,
        hooks: TrainerHooks | None = None,
    ) -> int:
        """One epoch: every row thread visits every column block once."""
        lam_q = lam_p if lam_q is None else lam_q
        index = self._index
        locks = ColumnLockArray(self.col_blocks)
        self.locks = locks
        counts = [0] * self.workers
        errors: list[BaseException] = []
        sequences = [
            self._rng.permutation(self.col_blocks) for _ in range(self.workers)
        ]
        rows, cols, vals = ratings.rows, ratings.cols, ratings.vals

        def work(wid: int) -> None:
            try:
                for col in sequences[wid]:
                    col = int(col)
                    # spin on the column lock, as the GPU worker does
                    while not locks.try_acquire(col, wid):
                        time.sleep(self.spin_sleep)
                    try:
                        idx = index[wid][col]
                        if len(idx):
                            sgd_serial_update(
                                model.p, model.q,
                                rows[idx], cols[idx], vals[idx],
                                lr, lam_p, lam_q,
                            )
                            counts[wid] += len(idx)
                    finally:
                        locks.release(col, wid)
            except BaseException as exc:  # pragma: no cover - defensive
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(wid,), name=f"wavefront-{wid}")
            for wid in range(self.workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:  # pragma: no cover - defensive
            raise errors[0]
        if not locks.all_free():
            raise RuntimeError("column locks leaked after the epoch")
        return sum(counts)

    # ------------------------------------------------------------------
    def fit(
        self,
        train: RatingMatrix,
        epochs: int = 10,
        test: RatingMatrix | None = None,
        target_rmse: float | None = None,
    ) -> TrainHistory:
        self._rng = np.random.default_rng(self.seed)
        self.model = FactorModel.initialize(
            train.n_rows, train.n_cols, self.k, seed=self.seed,
            scale_factor=self.scale_factor,
        )
        self._index = self._index_blocks(train)
        self.history = run_epochs(
            self, self.model, train, epochs,
            schedule=self.schedule, lam=self.lam,
            scheme="threaded-wavefront", k=self.k,
            test=test, target_rmse=target_rmse,
        )
        return self.history

    def score(self, ratings: RatingMatrix) -> float:
        if self.model is None:
            raise RuntimeError("fit() first")
        p, q = self.model.as_float32()
        return rmse(p, q, ratings)
