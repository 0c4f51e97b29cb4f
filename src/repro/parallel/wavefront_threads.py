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

import time
from contextlib import contextmanager

import numpy as np

from repro.core.kernels import sgd_serial_update
from repro.core.lr_schedule import LearningRateSchedule, NomadSchedule
from repro.core.model import FactorModel
from repro.core.partition import grid_block_index
from repro.core.trainer import EpochSolver
from repro.data.container import RatingMatrix
from repro.obs.hooks import TrainerHooks
from repro.parallel.threads import run_threads
from repro.sched.column_lock import ColumnLockArray

__all__ = ["ThreadedWavefront"]

#: Shared names worker threads may legitimately mutate, audited by the
#: ``race-shared-write`` lint pass. ``counts`` is write-disjoint (one slot per
#: worker id), and ``locks`` is the ColumnLockArray whose CAS discipline *is*
#: the synchronization protocol (Fig. 6).
SHARED_WRITE_OK = ("counts", "locks")

#: seconds a worker sleeps between tries at a held column lock
SPIN_SLEEP = 1e-5


class ThreadedWavefront(EpochSolver):
    """Wavefront-update executor with one OS thread per grid row."""

    scheme = "threaded-wavefront"

    def __init__(
        self,
        k: int = 32,
        workers: int = 4,
        col_blocks: int | None = None,
        lam: float = 0.05,
        schedule: LearningRateSchedule | None = None,
        seed: int = 0,
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
        self.locks: ColumnLockArray | None = None

    # ------------------------------------------------------------------
    @contextmanager
    def session(self, model: FactorModel, train: RatingMatrix):
        """Per-fit state: the column-order rng and the grid index."""
        self._rng = np.random.default_rng(self.seed)
        self._index = grid_block_index(train, self.workers, self.col_blocks)
        yield model

    def run_epoch(self, model: FactorModel, ratings: RatingMatrix, lr: float,
                  lam_p: float, lam_q: float | None = None,
                  hooks: TrainerHooks | None = None) -> int:
        """One epoch: every row thread visits every column block once."""
        lam_q = lam_p if lam_q is None else lam_q
        index, c = self._index, self.col_blocks
        locks = ColumnLockArray(c)
        self.locks = locks
        counts = [0] * self.workers
        sequences = [self._rng.permutation(c) for _ in range(self.workers)]
        rows, cols, vals = ratings.rows, ratings.cols, ratings.vals

        def work(wid: int) -> None:
            for col in sequences[wid]:
                col = int(col)
                # spin on the column lock, as the GPU worker does
                while not locks.try_acquire(col, wid):
                    time.sleep(SPIN_SLEEP)
                try:
                    idx = index[wid * c + col]
                    if len(idx):
                        sgd_serial_update(
                            model.p, model.q,
                            rows[idx], cols[idx], vals[idx],
                            lr, lam_p, lam_q,
                        )
                        counts[wid] += len(idx)
                finally:
                    locks.release(col, wid)

        run_threads(self.workers, work, "wavefront")
        if not locks.all_free():
            raise RuntimeError("column locks leaked after the epoch")
        return sum(counts)
