"""Batch-Hogwild! (§5.1): lock-free scheduling with cache-friendly batches.

Plain Hogwild! lets each worker pick one random sample at a time — no
scheduling overhead, but terrible spatial locality on the rating array.
Batch-Hogwild! keeps the lock-freedom and fixes locality: each parallel
worker fetches ``f`` **consecutive** samples (one cache-line-aligned run of
the pre-shuffled COO array) and updates them serially. Because the samples
were shuffled during preprocessing, consecutive storage order is still random
in (u, v) coordinates, so convergence behaves like true Hogwild!.

Eq. 8's locality condition: ``f >> ceil(cache_line / sizeof(sample))`` =
``ceil(128/12)`` = 11; the paper picks ``f = 256`` after observing all large
values behave the same (we expose ``f`` and sweep it in an ablation bench).

Execution model here: with ``s`` workers, wave ``t`` executes sample ``t`` of
every worker's current chunk concurrently — one call to the wave kernel of
:mod:`repro.core.kernels` with full race semantics. After ``f`` waves all
workers advance to the next group of chunks.

Hot-path structure: the epoch's wave schedule is an
:class:`~repro.sched.plan.EpochPlan` over the shuffled order (compiled once
per fit and re-shuffled in place before every epoch, the first included;
the compiled ``c`` kernel stages waves from the order itself, and the Python
wave loop lays them out into its workspace), and the kernel runs through a
:class:`~repro.core.kernels.WaveWorkspace` of preallocated scratch, so
steady-state epochs are allocation-free. Both layers
are numerically invisible: update order, RNG draws, and every fp32 bit match
the uncompiled per-wave schedule (pinned by ``tests/test_plan.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernels import WaveWorkspace
from repro.core.model import FactorModel
from repro.data.container import RatingMatrix
from repro.obs.hooks import TrainerHooks, emit_plan_events, resolve_hooks
from repro.san.core import active_sanitizer
from repro.sched.plan import EpochPlan, PlanStats

__all__ = ["BatchHogwild"]


@dataclass
class BatchHogwild:
    """Batch-Hogwild! epoch executor.

    Parameters
    ----------
    workers:
        Number of concurrent parallel workers ``s`` (thread blocks on the
        GPU; 768 on Maxwell, 1792 on Pascal at full occupancy).
    f:
        Consecutive samples per fetched chunk (paper default 256).
    seed:
        Seeds the generator that draws every epoch's sample order. The
        paper shuffles once in preprocessing (Algorithm 1, line 2); here
        every epoch draws a fresh permutation, which reached a lower best
        test RMSE than shuffling once on all three scaled data sets
        (``docs/PERFORMANCE.md``).
    backend:
        Kernel backend for the wave updates — a name, a
        :class:`~repro.backends.base.BackendType`, or a constructed
        :class:`~repro.backends.base.KernelBackend`. ``None`` (default)
        resolves to the NumPy reference, which binds the workspace's own
        kernel — the pre-registry code path, bit for bit.
    """

    workers: int
    f: int = 256
    seed: int = 0
    backend: object | None = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.f <= 0:
            raise ValueError(f"f must be positive, got {self.f}")
        self._rng = np.random.default_rng(self.seed)
        self._plan: EpochPlan | None = None
        self.plan_stats = PlanStats()
        self.workspace = WaveWorkspace()
        self._backend_obj = None

    def resolved_backend(self):
        """The verified :class:`~repro.backends.base.KernelBackend` this
        executor dispatches through (resolved once, cached)."""
        if self._backend_obj is None:
            from repro.backends import get_backend

            self._backend_obj = get_backend(self.backend)
        return self._backend_obj

    # ------------------------------------------------------------------
    def compiled_plan(self, nnz: int) -> EpochPlan:
        """The next epoch's compiled wave schedule: one
        :meth:`~repro.sched.plan.EpochPlan.repermute` per epoch, the first
        included. The plan is compiled once per ``nnz``, over
        ``arange(nnz)``, so its first draw is ``rng.permutation(nnz)``
        draw for draw."""
        plan = self._plan
        if plan is None or plan.nnz != nnz:
            self._plan = plan = EpochPlan(
                np.arange(nnz), self.workers, self.f, stats=self.plan_stats
            )
        plan.repermute(self._rng)
        return plan

    def epoch_extras(self) -> dict:
        """Cumulative plan-compilation and workspace counters for the
        epoch event: one compile per fit, then one repermute per epoch."""
        ws = self.workspace
        return {
            **self.plan_stats.as_extra(),
            "workspace_allocations": ws.allocations,
            "workspace_plan_binds": ws.plan_binds,
            "workspace_waves": ws.waves,
            "workspace_bytes": ws.nbytes,
        }

    def wave_indices(self, nnz: int) -> list[np.ndarray]:
        """Partition one epoch into wave index arrays (testing hook).

        Wave ``t`` of a group holds sample positions
        ``{w*f + t : w in workers}`` relative to the group start, i.e. each
        worker walks its own chunk of ``f`` consecutive samples while waves
        cut across workers. Returns arrays independent of the plan, read by
        :meth:`~repro.sched.plan.EpochPlan.wave_positions`.
        """
        return self.compiled_plan(nnz).wave_arrays()

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
        """Execute one full pass over the rating matrix. Returns #updates.

        The epoch is one ``backend.replay`` of the compiled plan (numpy
        wave by wave, bit for bit; ``c`` in one foreign call), which an
        active sanitizer observes as worker 0. ``hooks`` then receive the
        kernel events read off the plan
        (:func:`~repro.obs.hooks.emit_plan_events`), so listening never
        changes the kernel path.
        """
        lam_q = lam_p if lam_q is None else lam_q
        plan = self.compiled_plan(ratings.nnz)
        san = active_sanitizer()
        ws = self.workspace
        p, q = model.p, model.q
        ws.reserve(plan.width, p.shape[1],
                   half_precision=p.dtype != np.float32)
        # begin_epoch seals the previous epoch's recorded views before
        # bind_plan regathers them
        epoch = san.begin_epoch() if san is not None else 0
        # pre-coerced scalars: the kernel skips its per-call conversions
        updates = self.resolved_backend().replay(
            ws, plan, p, q, ratings.rows, ratings.cols, ratings.vals,
            np.float32(lr), np.float32(lam_p), np.float32(lam_q),
            san=san, epoch=epoch)
        if san is not None:
            san.epoch_end(p, q, epoch=epoch)
        emit_plan_events(resolve_hooks(hooks), plan, ratings.rows,
                         ratings.cols)
        return updates
