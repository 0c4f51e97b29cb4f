"""Wavefront-update (§5.2): block scheduling with a 1-D column-lock array.

The rating matrix is partitioned into an ``s x c`` grid (the paper uses
``c = 2s``). Parallel worker ``w`` permanently owns grid row ``w`` — so row
conflicts are impossible by construction — and walks its own random
permutation of the ``c`` columns. Before starting the next block, a worker
checks a single entry of the column-lock array; when the column is held by
another worker it waits (that, and only that, is the synchronization).

Compared to LIBMF's global table this replaces an O(a²) critical-section
scan with an O(1) local lookup, and lets a worker start its next wave early
instead of barriering with all other workers — the two benefits called out
under Fig. 6.

Numeric model: we iterate *rounds*; in each round every unfinished worker
tries to acquire its next column. The granted set is pairwise independent
(distinct grid rows, lock-distinct columns), so executing the granted blocks
back-to-back is numerically identical to running them concurrently. Blocked
workers retry next round — reproducing the load-imbalance waits the lock
array is designed to minimize, which we count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernels import WaveWorkspace, sgd_serial_update
from repro.core.model import FactorModel
from repro.core.partition import grid_block_index
from repro.data.container import RatingMatrix
from repro.obs.hooks import BatchEvent, TrainerHooks, resolve_hooks
from repro.san.core import active_sanitizer
from repro.sched.column_lock import ColumnLockArray, LockContentionStats

__all__ = ["WavefrontScheduler"]


@dataclass
class WavefrontScheduler:
    """Wavefront-update epoch executor.

    Parameters
    ----------
    workers:
        Parallel workers ``s``; also the number of grid rows.
    col_blocks:
        Grid columns ``c``; defaults to ``2 * workers`` as in Fig. 6.
    """

    workers: int
    col_blocks: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        self.col_blocks = self.col_blocks or 2 * self.workers
        if self.col_blocks < 1:
            raise ValueError(f"col_blocks must be positive, got {self.col_blocks}")
        self._rng = np.random.default_rng(self.seed)
        self._block_index: list[np.ndarray] | None = None
        self._prepared_for: RatingMatrix | None = None
        #: retry events observed (a worker found its next column held)
        self.wait_events = 0
        #: rounds needed by the last epoch (load-imbalance diagnostic)
        self.last_epoch_rounds = 0
        #: cumulative column-lock contention across all epochs run
        self.lock_stats = LockContentionStats()
        #: the last epoch's column-lock contention
        self.last_epoch_locks = LockContentionStats()
        #: scratch reused by every block's serial-equivalent replay
        self.workspace = WaveWorkspace()

    # ------------------------------------------------------------------
    def prepare(self, ratings: RatingMatrix) -> None:
        """Index samples by grid block; call once per data set."""
        self._block_index = grid_block_index(ratings, self.workers, int(self.col_blocks))
        self._prepared_for = ratings

    def block_samples(self, worker: int, col_block: int) -> np.ndarray:
        """Sample positions of grid block ``(worker, col_block)``."""
        if self._block_index is None:
            raise RuntimeError("call prepare(ratings) first")
        return self._block_index[worker * int(self.col_blocks) + col_block]

    # ------------------------------------------------------------------
    def run_epoch(
        self,
        model: FactorModel,
        ratings: RatingMatrix,
        lr: float,
        lam_p: float,
        lam_q: float | None = None,
        hooks: TrainerHooks | None = None,
    ) -> int:
        """One full pass: every worker visits every column block once.

        ``hooks`` receives one ``on_batch`` event per executed grid block,
        carrying the lock waits the worker accumulated before the grant.
        An active sanitizer records each executed block under its
        grid-row worker and sweeps the model at the epoch's end.
        """
        lam_q = lam_p if lam_q is None else lam_q
        hooks = resolve_hooks(hooks)
        observe = hooks.active
        san = active_sanitizer()
        epoch = san.begin_epoch() if san is not None else 0
        if self._prepared_for is not ratings:
            self.prepare(ratings)
        s, c = self.workers, int(self.col_blocks)
        locks = ColumnLockArray(c)
        # each worker draws a private permutation of column blocks (Fig. 6)
        sequences = [self._rng.permutation(c) for _ in range(s)]
        position = np.zeros(s, dtype=np.int64)
        waits_since_grant = np.zeros(s, dtype=np.int64)
        updates = 0
        rounds = 0
        rows, cols, vals = ratings.rows, ratings.cols, ratings.vals

        remaining = set(range(s))
        while remaining:
            rounds += 1
            granted: list[tuple[int, int]] = []
            for w in self._rng.permutation(sorted(remaining)):
                col = int(sequences[w][position[w]])
                if locks.try_acquire(col, int(w)):
                    granted.append((int(w), col))
                else:
                    self.wait_events += 1
                    waits_since_grant[w] += 1
            if not granted:
                raise RuntimeError(
                    "wavefront deadlock: no worker could acquire a column"
                )
            for w, col in granted:
                idx = self.block_samples(w, col)
                if len(idx):
                    # shuffle within the block; the worker then runs serially
                    idx = idx[self._rng.permutation(len(idx))]
                    block_rows, block_cols = rows[idx], cols[idx]
                    sgd_serial_update(
                        model.p,
                        model.q,
                        block_rows,
                        block_cols,
                        vals[idx],
                        lr,
                        lam_p,
                        lam_q,
                        workspace=self.workspace,
                    )
                    if san is not None:
                        san.block_executed(w, epoch, int(position[w]),
                                           block_rows, block_cols)
                    updates += len(idx)
                locks.release(col, w)
                if observe:
                    hooks.on_batch(
                        BatchEvent(
                            scheme="wavefront",
                            worker=w,
                            block=(w, col),
                            n_updates=len(idx),
                            waits=int(waits_since_grant[w]),
                        )
                    )
                    waits_since_grant[w] = 0
                position[w] += 1
                if position[w] == c:
                    remaining.discard(w)
        self.last_epoch_rounds = rounds
        self.last_epoch_locks = locks.stats()
        self.lock_stats = self.lock_stats + self.last_epoch_locks
        if san is not None:
            san.epoch_end(model.p, model.q, epoch=epoch)
        return updates

    def epoch_extras(self) -> dict:
        """The last epoch's lock waits, lock attempts and rounds."""
        return {
            "lock_wait_events": self.last_epoch_locks.waits,
            "lock_attempts": self.last_epoch_locks.attempts,
            "sched_rounds": self.last_epoch_rounds,
        }
