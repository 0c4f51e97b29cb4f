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
:class:`~repro.sched.plan.EpochPlan` over the shuffled order (cached across
epochs and re-shuffled in place under ``shuffle_each_epoch``; the compiled
``c`` kernel stages waves from the order itself, and the Python wave loop
lays them out into its workspace), and the kernel runs through a
:class:`~repro.core.kernels.WaveWorkspace` of preallocated scratch, so
steady-state epochs are allocation-free. Both layers
are numerically invisible: update order, RNG draws, and every fp32 bit match
the uncompiled per-wave schedule (pinned by ``tests/test_plan.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.base import replay_waves
from repro.core.kernels import WaveWorkspace
from repro.core.model import FactorModel
from repro.data.container import RatingMatrix
from repro.obs.hooks import TrainerHooks, resolve_hooks
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
    shuffle_each_epoch:
        Re-shuffle the sample order before every epoch. The paper shuffles
        once in preprocessing; per-epoch shuffling adds randomness at no
        modelled cost and is the default here.
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
    shuffle_each_epoch: bool = True
    backend: object | None = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if self.f <= 0:
            raise ValueError(f"f must be positive, got {self.f}")
        self._rng = np.random.default_rng(self.seed)
        self._order: np.ndarray | None = None
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
        """The epoch's compiled wave schedule, advancing the RNG exactly as
        the legacy per-wave builder did (one permutation on first use, one
        in-place shuffle per epoch under ``shuffle_each_epoch``)."""
        if self._order is None or len(self._order) != nnz:
            self._order = self._rng.permutation(nnz)  # int64 already
            self._plan = EpochPlan(
                self._order, self.workers, self.f, stats=self.plan_stats
            )
            return self._plan
        plan = self._plan
        if plan is None or not plan.matches(self._order, self.workers, self.f):
            if self.shuffle_each_epoch:
                self._rng.shuffle(self._order)
            self._plan = plan = EpochPlan(
                self._order, self.workers, self.f, stats=self.plan_stats
            )
        elif self.shuffle_each_epoch:
            plan.repermute(self._rng)
        else:
            plan.note_cache_hit()
        return plan

    def wave_indices(self, nnz: int) -> list[np.ndarray]:
        """Partition one epoch into wave index arrays (testing hook).

        Wave ``t`` of a group holds sample positions
        ``{w*f + t : w in workers}`` relative to the group start, i.e. each
        worker walks its own chunk of ``f`` consecutive samples while waves
        cut across workers. Returns arrays independent of the plan, laid
        out by :meth:`~repro.sched.plan.EpochPlan.positions`.
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

        ``hooks`` receives one ``on_kernel`` event per ``kernel_stride``
        waves; each event carries the exact number of updates and waves the
        window covered (plus the last wave's coordinates as the Eq. 6
        conflict sample). With no collector and no sanitizer attached the
        backend replays the whole plan (numpy wave by wave, bit for bit;
        ``c`` in one foreign call); otherwise the epoch runs through
        :func:`~repro.backends.base.replay_waves` over the backend's
        per-wave kernel, which the sanitizer observes as worker 0.
        """
        lam_q = lam_p if lam_q is None else lam_q
        hooks = resolve_hooks(hooks)
        plan = self.compiled_plan(ratings.nnz)
        san = active_sanitizer()
        ws = self.workspace
        p, q = model.p, model.q
        ws.reserve(plan.width, p.shape[1],
                   half_precision=p.dtype != np.float32)
        backend = self.resolved_backend()
        # pre-coerced scalars: the kernel skips its per-call conversions
        args = (p, q, ratings.rows, ratings.cols, ratings.vals,
                np.float32(lr), np.float32(lam_p), np.float32(lam_q))
        if not hooks.active and san is None:
            return backend.replay(ws, plan, *args)
        # begin_epoch seals the previous epoch's recorded views before
        # bind_plan regathers them
        epoch = san.begin_epoch() if san is not None else 0
        # registry dispatch: numpy binds ws.wave_update itself, so the
        # observed path is the historical one, bit for bit
        updates = replay_waves(ws, backend.bind(ws), plan, *args,
                               hooks=hooks, san=san, epoch=epoch)
        if san is not None:
            san.epoch_end(p, q, epoch=epoch)
        return updates
