"""LIBMF reimplementation: blocked shared-memory SGD with a global table.

LIBMF (Chin et al.) divides R into ``a x a`` blocks and runs ``s`` CPU
threads. An idle thread enters a critical section, scans the global table
for an *independent* block (no busy row, no busy column, preferring blocks
updated least often this epoch), claims it, then processes the block's
samples serially.

Numeric semantics here follow the scheduler exactly. Because in-flight
blocks are pairwise independent (Eq. 6), serializing "release → acquire →
process" per worker is numerically identical to the concurrent execution —
which also faithfully reproduces the Fig. 14 pathology: with ``a <= s`` the
only free block when a worker releases is the one it just held, so each
worker grinds its own diagonal block forever and the factors never mix
across blocks.

The throughput side (critical-section contention, cache-efficiency collapse
on large data) lives in :mod:`repro.gpusim`.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.kernels import WaveWorkspace, sgd_serial_update
from repro.core.lr_schedule import ConstantSchedule, LearningRateSchedule
from repro.core.model import FactorModel
from repro.core.partition import GridPartition
from repro.core.trainer import EpochSolver
from repro.data.container import RatingMatrix
from repro.obs.hooks import TrainerHooks
from repro.sched.table import GlobalScheduleTable

__all__ = ["LIBMFSolver"]


class LIBMFSolver(EpochSolver):
    """Blocked SGD with LIBMF's global-table scheduling.

    Parameters
    ----------
    k:
        Feature dimension.
    threads:
        Concurrent workers ``s`` (the paper uses 40 of the platform's 48).
    a:
        Grid dimension; R is split into ``a x a`` blocks. The paper selects
        100 for Netflix after sweeping 40-160; Fig. 14 shows what happens
        when ``a`` approaches ``threads``.
    """

    scheme = "libmf"

    def __init__(
        self,
        k: int = 32,
        threads: int = 8,
        a: int = 32,
        lam: float = 0.05,
        schedule: LearningRateSchedule | None = None,
        seed: int = 0,
    ) -> None:
        if k <= 0 or threads <= 0 or a <= 0:
            raise ValueError("k, threads, a must all be positive")
        self.k = k
        self.threads = threads
        self.a = a
        self.lam = lam
        self.schedule = schedule or ConstantSchedule(0.1)
        self.seed = seed
        #: the last fit's global scheduling table, for its grant/scan counters
        self.table: GlobalScheduleTable | None = None

    @contextmanager
    def session(self, model: FactorModel, train: RatingMatrix):
        """Per-fit state: block-choice rng, grid, table, kernel workspace."""
        self._rng = np.random.default_rng(self.seed)
        self._workspace = WaveWorkspace()
        self._partition = GridPartition(train, self.a, self.a)
        self.table = GlobalScheduleTable(self.a, seed=self.seed)
        yield model

    def run_epoch(self, model: FactorModel, ratings: RatingMatrix, lr: float,
                  lam_p: float, lam_q: float | None = None,
                  hooks: TrainerHooks | None = None) -> int:
        """One epoch: grant blocks until N samples have been processed.

        Mirrors LIBMF: workers cycle release→acquire→process; an epoch ends
        when the number of processed samples reaches nnz. With balanced
        grids this visits each block about once.
        """
        table, rng = self.table, self._rng
        table.reset_epoch()
        s = min(self.threads, table.a)  # more workers than rows can never run
        # initial acquisition, in worker order
        held: dict[int, tuple[int, int]] = {}
        for w in range(s):
            blk = table.acquire(w)
            if blk is None:
                break
            held[w] = blk

        processed = 0
        target = ratings.nnz
        rows, cols, vals = ratings.rows, ratings.cols, ratings.vals
        while processed < target and held:
            w = int(rng.choice(sorted(held)))
            bi, bj = held[w]
            idx = self._partition.block(bi, bj).sample_index
            if len(idx):
                idx = idx[rng.permutation(len(idx))]
                sgd_serial_update(
                    model.p, model.q, rows[idx], cols[idx], vals[idx],
                    lr, lam_p, lam_q, workspace=self._workspace,
                )
                processed += len(idx)
            table.release(w)
            del held[w]
            blk = table.acquire(w)
            if blk is not None:
                held[w] = blk
        # drain remaining holders
        for w in list(held):
            table.release(w)
        return processed
