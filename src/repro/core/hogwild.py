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
``c`` kernel stages waves from the order itself, and the padded
``(n_waves, s)`` index matrix the Python wave loops walk is filled on first
read), and the kernel runs through a
:class:`~repro.core.kernels.WaveWorkspace` of preallocated scratch, so
steady-state epochs are allocation-free. Both layers
are numerically invisible: update order, RNG draws, and every fp32 bit match
the uncompiled per-wave schedule (pinned by ``tests/test_plan.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.kernels import UPDATE_ERRSTATE, WaveWorkspace
from repro.core.model import FactorModel
from repro.data.container import RatingMatrix
from repro.obs.hooks import (
    KernelEvent,
    TrainerHooks,
    resolve_hooks,
    resolve_kernel_stride,
)
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
    track_collisions:
        Record the mean wave collision fraction per epoch (diagnostics for
        the §7.5 convergence analysis).
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
    track_collisions: bool = False
    backend: object | None = None
    collision_history: list[float] = field(default_factory=list, repr=False)

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
            self._order = self._rng.permutation(nnz).astype(np.int64)
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
        cut across workers. Returns independent copies; the executor itself
        runs straight off the compiled plan's matrix.
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
        conflict sample). With no collector attached the per-wave cost is a
        single attribute check.
        """
        lam_q = lam_p if lam_q is None else lam_q
        hooks = resolve_hooks(hooks)
        observe = hooks.active
        plan = self.compiled_plan(ratings.nnz)
        san = active_sanitizer()
        ws = self.workspace
        p, q = model.p, model.q
        # pre-coerced scalars: the kernel skips its per-call conversions
        lr = np.float32(lr)
        lam_p = np.float32(lam_p)
        lam_q = np.float32(lam_q)
        ws.reserve(plan.width, p.shape[1],
                   half_precision=p.dtype != np.float32)
        backend = self.resolved_backend()
        if not (observe or self.track_collisions or san is not None):
            # nothing watches single waves: the backend replays the whole
            # plan (numpy wave by wave, bit for bit; c in one foreign call)
            return backend.replay(ws, plan, p, q, ratings.rows, ratings.cols,
                                  ratings.vals, lr, lam_p, lam_q)
        stride = resolve_kernel_stride(hooks) if observe else 1
        pending_waves = 0
        pending_updates = 0
        updates = 0
        collision_acc = 0.0
        n_waves = 0
        # inline sanitizer hooks: the epoch's coverage is captured in one
        # O(1) record after the loop (the bound wave matrices ARE the
        # coverage), so the hot loop pays one branch per wave plus a
        # sampled residual check — begin_epoch seals the previous
        # epoch's recorded views before bind_plan regathers them
        sentry = None
        san_stride = san_epoch = 0
        if san is not None:
            san_epoch = san.begin_epoch(wid=0)
            if san.check_numeric:
                sentry = san.numeric
                san_stride = sentry.sample_stride
        rows_w, cols_w, vals_w = ws.bind_plan(
            plan, ratings.rows, ratings.cols, ratings.vals
        )
        lengths = plan.lengths.tolist()
        width = plan.width
        track = self.track_collisions
        if track:
            from repro.sched.conflict import collision_fraction
        # registry dispatch: numpy resolves to ws.wave_update itself, so the
        # default path is the historical one, bit for bit
        wave_update = backend.bind(ws)
        if sentry is not None:
            sentry.check_dtypes(p, q, None, 0, san_epoch)
        i = 0
        with np.errstate(**UPDATE_ERRSTATE):
            for wr, wc, wv in zip(rows_w, cols_w, vals_w):
                w = lengths[i]
                i += 1
                if w != width:
                    wr = wr[:w]
                    wc = wc[:w]
                    wv = wv[:w]
                if track:
                    collision_acc += collision_fraction(wr, wc)
                    n_waves += 1
                err = wave_update(p, q, wr, wc, wv, lr, lam_p, lam_q)
                updates += w
                if sentry is not None and not (i - 1) % san_stride:
                    sentry.check_wave(err, 0, san_epoch, i - 1)
                if observe:
                    pending_waves += 1
                    pending_updates += w
                    if pending_waves == stride:
                        hooks.on_kernel(
                            KernelEvent(
                                name="hogwild.wave", n_updates=pending_updates,
                                rows=wr.copy(), cols=wc.copy(),
                                n_waves=pending_waves,
                            )
                        )
                        pending_waves = 0
                        pending_updates = 0
        if pending_waves:  # tail waves the stride window did not flush
            hooks.on_kernel(
                KernelEvent(
                    name="hogwild.wave", n_updates=pending_updates,
                    n_waves=pending_waves,
                )
            )
        if self.track_collisions and n_waves:
            self.collision_history.append(collision_acc / n_waves)
        if san is not None:
            san.epoch_executed(
                rows_w, cols_w, plan.lengths, wid=0, epoch=san_epoch
            )
            # seals immediately, while the bound views are still live
            san.epoch_end(p, q, wid=0, epoch=san_epoch)
        return updates
