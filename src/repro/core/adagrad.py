"""ADAGRAD-driven batch-Hogwild! — the paper's stated future work.

§7.2: "cuMF_SGD can also use ADAGRAD or other learning rate schedulers, for
faster convergence. We leave it as future work." This module implements it:
the same lock-free wave execution as :class:`repro.core.hogwild.BatchHogwild`
but with per-element adaptive step sizes from
:class:`repro.core.lr_schedule.AdaGradSchedule`.

Race semantics note: the accumulator updates use ``np.add.at`` (every
gradient contributes), while the parameter writes keep the last-writer-wins
Hogwild semantics — matching a GPU implementation where the accumulator is
updated with ``atomicAdd`` (cheap: one scalar per vector) but the fat vector
writes stay non-atomic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.base import replay_waves
from repro.core.hogwild import BatchHogwild
from repro.core.kernels import wave_gradients
from repro.core.lr_schedule import AdaGradSchedule
from repro.core.model import FactorModel
from repro.data.container import RatingMatrix
from repro.obs.hooks import TrainerHooks, emit_plan_events, resolve_hooks
from repro.san.core import active_sanitizer

__all__ = ["AdaGradHogwild"]


@dataclass
class AdaGradHogwild(BatchHogwild):
    """Batch-Hogwild! with element-wise ADAGRAD step sizes."""

    schedule: AdaGradSchedule | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.schedule is None:
            self.schedule = AdaGradSchedule()
        self._initialized_for: tuple[int, int] | None = None

    def _ensure_state(self, model: FactorModel) -> None:
        shape = (model.p.shape, model.q.shape)
        if self._initialized_for != shape:
            self.schedule.reset(model.p.shape, model.q.shape)
            self._initialized_for = shape

    def _wave(self, p, q, wr, wc, wv, lr, lam_p, lam_q) -> np.ndarray:
        """One ADAGRAD wave: accumulate, then step each element at its own
        rate (``lr`` is unused). Returns the wave's residuals, which a
        numeric sanitizer checks."""
        err, gp, gq = wave_gradients(p, q, wr, wc, wv, lam_p, lam_q)
        self.schedule.accumulate(wr, wc, gp, gq)
        rate_p, rate_q = self.schedule.elementwise_rate(wr, wc)
        new_p = p[wr].astype(np.float32) + rate_p * gp
        new_q = q[wc].astype(np.float32) + rate_q * gq
        p[wr] = new_p if p.dtype == np.float32 else new_p.astype(p.dtype)
        q[wc] = new_q if q.dtype == np.float32 else new_q.astype(q.dtype)
        return err

    def run_epoch(
        self,
        model: FactorModel,
        ratings: RatingMatrix,
        lr: float,
        lam_p: float,
        lam_q: float | None = None,
        hooks: TrainerHooks | None = None,
    ) -> int:
        """One epoch; ``lr`` is ignored (ADAGRAD supplies per-element rates).

        The epoch runs off the compiled :class:`~repro.sched.plan.EpochPlan`
        shared with :class:`BatchHogwild`, through
        :func:`~repro.backends.base.replay_waves` with the ADAGRAD wave as
        its kernel. An active sanitizer observes it as worker 0, as on
        :meth:`BatchHogwild.run_epoch`, and ``hooks`` then receive the
        plan's ``adagrad.wave`` events
        (:func:`~repro.obs.hooks.emit_plan_events`), each with the exact
        update total of the waves in its stride window.
        """
        lam_q = lam_p if lam_q is None else lam_q
        self._ensure_state(model)
        plan = self.compiled_plan(ratings.nnz)
        san = active_sanitizer()
        # begin_epoch seals the previous epoch's recorded views before
        # bind_plan regathers them
        epoch = san.begin_epoch() if san is not None else 0
        updates = replay_waves(
            self.workspace, self._wave, plan, model.p, model.q, ratings.rows,
            ratings.cols, ratings.vals, lr, lam_p, lam_q, san=san,
            epoch=epoch,
        )
        if san is not None:
            san.epoch_end(model.p, model.q, epoch=epoch)
        emit_plan_events(resolve_hooks(hooks), plan, ratings.rows,
                         ratings.cols, "adagrad.wave")
        return updates
