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

Execution: ``n_threads`` OS threads share the lock array, each owning a
contiguous run of grid rows and iterating *rounds*: every unfinished row
it owns tries to acquire its next column, then the granted blocks (no
shared row or column) run back to back. Blocked rows retry next round:
the load-imbalance waits the lock array counts. One thread owns every
row and draws only from the seeded generator, so it is deterministic.

Each block is one ``backend.serial_update`` call on its thread's
workspace, through the kernel backend registry (:mod:`repro.backends`;
``None`` is numpy's :func:`~repro.core.kernels.sgd_serial_update`, bit
for bit). On ``c`` a block is one GIL-free foreign call, so the threads
compute at once; blocks that run at once share no grid row and no
column, so they write disjoint rows of P and Q.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.backends import get_backend
from repro.core.kernels import WaveWorkspace
from repro.core.model import FactorModel
from repro.core.partition import grid_block_index
from repro.data.container import RatingMatrix
from repro.obs.hooks import BatchEvent, TrainerHooks, resolve_hooks
from repro.parallel.dispatch import run_threads
from repro.san.core import active_sanitizer
from repro.sched.column_lock import ColumnLockArray, LockContentionStats

__all__ = ["WavefrontScheduler"]

#: Shared names the worker threads write (``race-shared-write`` lint):
#: ``counts``, ``rounds`` and ``events`` are per-thread slots (one entry
#: per thread id); ``position`` and ``waits_since_grant`` are row-owned
#: state (one entry per grid row, written only by the thread that owns the
#: row); ``locks`` is the ColumnLockArray whose mutex *is* the protocol.
SHARED_WRITE_OK = ("counts", "rounds", "events", "position",
                   "waits_since_grant", "locks")

#: seconds a thread sleeps after a round whose columns were all held
SPIN_SLEEP = 1e-5


@dataclass
class WavefrontScheduler:
    """Wavefront-update epoch executor.

    Parameters
    ----------
    workers:
        Parallel workers ``s``; also the number of grid rows.
    col_blocks:
        Grid columns ``c``; defaults to ``2 * workers`` as in Fig. 6.
    n_threads:
        OS threads sharing the lock array. Thread 0 draws from the seeded
        generator, the others from streams spawned from ``SeedSequence(seed)``.
    backend:
        Kernel backend each block runs on, as for
        :class:`~repro.core.hogwild.BatchHogwild`; ``None`` (default) is
        the NumPy reference. Resolved and verified once, here, before any
        thread starts.
    """

    workers: int
    col_blocks: int | None = None
    seed: int = 0
    n_threads: int = 1
    backend: object | None = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        self.col_blocks = self.col_blocks or 2 * self.workers
        if self.col_blocks < 1:
            raise ValueError(f"col_blocks must be positive, got {self.col_blocks}")
        if not 1 <= self.n_threads <= self.workers:
            raise ValueError(f"n_threads must lie in [1, workers], got {self.n_threads}")
        self._rng = np.random.default_rng(self.seed)
        spawned = np.random.SeedSequence(self.seed).spawn(self.n_threads - 1)
        self._rngs = [self._rng, *(np.random.default_rng(s) for s in spawned)]
        self._block_index: list[np.ndarray] | None = None
        self._prepared_for: RatingMatrix | None = None
        #: rounds the last epoch's threads ran, summed (load-imbalance diagnostic)
        self.last_epoch_rounds = 0
        #: cumulative column-lock contention across all epochs run
        self.lock_stats = LockContentionStats()
        #: the last epoch's column-lock contention
        self.last_epoch_locks = LockContentionStats()
        #: one scratch per thread, reused by every block's serial replay
        self.workspaces = [WaveWorkspace() for _ in range(self.n_threads)]
        self._backend = get_backend(self.backend)

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
        carrying the worker's lock waits since its last grant, delivered
        after the join. An active sanitizer records each executed block
        under its grid-row worker and sweeps the model at the epoch's end.
        """
        lam_q = lam_p if lam_q is None else lam_q
        hooks = resolve_hooks(hooks)
        observe = hooks.active
        san = active_sanitizer()
        epoch = san.begin_epoch() if san is not None else 0
        if self._prepared_for is not ratings:
            self.prepare(ratings)
        s, c, n = self.workers, int(self.col_blocks), self.n_threads
        locks = ColumnLockArray(c)
        # each worker draws a private permutation of column blocks (Fig. 6)
        sequences = [self._rng.permutation(c) for _ in range(s)]
        position = np.zeros(s, dtype=np.int64)
        waits_since_grant = np.zeros(s, dtype=np.int64)
        counts, rounds = [0] * n, [0] * n
        events: list[list[BatchEvent]] = [[] for _ in range(n)]
        rows, cols, vals = ratings.rows, ratings.cols, ratings.vals

        def work(tid: int) -> None:
            rng, ws = self._rngs[tid], self.workspaces[tid]
            remaining = set(range(tid * s // n, (tid + 1) * s // n))
            while remaining:
                rounds[tid] += 1
                granted: list[tuple[int, int]] = []
                for w in rng.permutation(sorted(remaining)):
                    col = int(sequences[w][position[w]])
                    if locks.try_acquire(col, int(w)):
                        granted.append((int(w), col))
                    else:
                        waits_since_grant[w] += 1
                if not granted:  # another thread holds every column asked for
                    time.sleep(SPIN_SLEEP)
                    continue
                try:
                    for w, col in granted:
                        idx = self.block_samples(w, col)
                        if len(idx):
                            # shuffle within the block; the worker then runs serially
                            idx = idx[rng.permutation(len(idx))]
                            block_rows, block_cols = rows[idx], cols[idx]
                            self._backend.serial_update(
                                model.p, model.q, block_rows, block_cols,
                                vals[idx], lr, lam_p, lam_q, workspace=ws,
                            )
                            if san is not None:
                                san.block_executed(w, epoch, int(position[w]),
                                                   block_rows, block_cols)
                            counts[tid] += len(idx)
                        locks.release(col, w)
                        if observe:
                            events[tid].append(BatchEvent(
                                scheme="wavefront", worker=w, block=(w, col),
                                n_updates=len(idx),
                                waits=int(waits_since_grant[w]),
                            ))
                            waits_since_grant[w] = 0
                        position[w] += 1
                        if position[w] == c:
                            remaining.discard(w)
                except BaseException:  # free the round's columns: others wait on them
                    for w, col in granted:
                        if locks.owner(col) == w:
                            locks.release(col, w)
                    raise

        run_threads(n, work, "wavefront")
        for batch in events:
            for event in batch:
                hooks.on_batch(event)
        self.last_epoch_rounds = sum(rounds)
        self.last_epoch_locks = locks.stats()
        self.lock_stats = self.lock_stats + self.last_epoch_locks
        if san is not None:
            san.epoch_end(model.p, model.q, epoch=epoch)
        return sum(counts)

    def epoch_extras(self) -> dict:
        """The last epoch's lock waits, lock attempts and rounds."""
        return {
            "lock_wait_events": self.last_epoch_locks.waits,
            "lock_attempts": self.last_epoch_locks.attempts,
            "sched_rounds": self.last_epoch_rounds,
        }
