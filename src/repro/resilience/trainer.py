"""Checkpoint-based recovery and divergence rollback around ``CuMFSGD``.

HOGWILD!-style lock-free updates amplify divergence at aggressive learning
rates (Niu et al., 2011; the paper's §7.5 safety rule bounds *when*, not
*whether*). :class:`ResilientTrainer` runs the same executors through the
same epoch loop as :class:`repro.core.trainer.CuMFSGD`
(:func:`~repro.core.trainer.run_epochs`), acting as its
:class:`~repro.core.trainer.EpochGuard`, so it can:

* take an **atomic checkpoint** of the last known-good model every
  ``checkpoint_every`` epochs (plus an epoch-0 safety net);
* run **NaN/divergence guards** after every epoch (non-finite factors,
  non-finite RMSE, RMSE blow-up past ``divergence_factor`` x the best seen,
  or a :func:`repro.analysis.diagnostics.detect_divergence` rising run);
* on divergence, **roll back** to the last good checkpoint with the
  learning rate scaled by ``rollback_lr_factor`` (halved, by default),
  bounded by ``max_rollbacks`` — exhaustion raises the typed
  :class:`~repro.resilience.faults.TrainingDivergedError`;
* attach a :class:`~repro.resilience.faults.FaultPlan` to a multi-device
  executor, so device loss and flaky transfers are exercised under the
  same roof.

Every recovery action is mirrored into the ambient metrics registry as
``repro.resilience.*`` counters and kept in :attr:`ResilientTrainer.log`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.diagnostics import detect_divergence
from repro.core.checkpoint import load_model, save_model
from repro.core.model import FactorModel
from repro.core.multi_gpu import MultiDeviceSGD
from repro.core.trainer import CuMFSGD, TrainHistory, run_epochs
from repro.data.container import RatingMatrix
from repro.obs.context import active_registry
from repro.obs.registry import M
from repro.obs.hooks import TrainerHooks
from repro.resilience.faults import TrainingDivergedError

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.faults import FaultPlan
    from repro.resilience.retry import RetryPolicy

__all__ = ["ResilientTrainer", "RecoveryEvent"]

#: checkpoint file name inside the trainer's checkpoint directory
_CHECKPOINT_NAME = "last_good.npz"


@dataclass(frozen=True)
class RecoveryEvent:
    """One entry of the recovery log: what happened, after which epoch."""

    kind: str  # "checkpoint" | "divergence" | "rollback"
    epoch: int
    detail: dict = field(default_factory=dict)


class ResilientTrainer:
    """Fault-tolerant training of a configured :class:`CuMFSGD`.

    Parameters
    ----------
    estimator:
        The configured estimator; its model, schedule, scheme, and executor
        settings are reused. The trainer adds its guard to
        ``estimator.fit``'s epoch loop, not a loop of its own.
    checkpoint_dir:
        Directory for the rotating ``last_good.npz`` checkpoint (created if
        missing). Saves are atomic — a crash mid-save never clobbers the
        previous good checkpoint.
    checkpoint_every:
        Epoch interval between checkpoints. 1 checkpoints every epoch.
    max_rollbacks:
        Rollback budget; exceeding it raises :class:`TrainingDivergedError`.
    rollback_lr_factor:
        Multiplier applied to the learning-rate scale on every rollback.
    divergence_factor:
        RMSE larger than ``divergence_factor * best_so_far`` counts as
        divergence even while still finite.
    patience:
        Consecutive rising epochs that count as divergence (the
        :func:`detect_divergence` rule).
    fault_plan, retry:
        Optional :class:`FaultPlan` / :class:`RetryPolicy` attached to a
        multi-device executor, so simulated device loss and transfer
        faults run inside the recovering loop.
    """

    def __init__(
        self,
        estimator: CuMFSGD,
        checkpoint_dir: str | Path,
        checkpoint_every: int = 1,
        max_rollbacks: int = 3,
        rollback_lr_factor: float = 0.5,
        divergence_factor: float = 4.0,
        patience: int = 3,
        fault_plan: "FaultPlan | None" = None,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if max_rollbacks < 0:
            raise ValueError(f"max_rollbacks must be >= 0, got {max_rollbacks}")
        if not 0.0 < rollback_lr_factor < 1.0:
            raise ValueError("rollback_lr_factor must be in (0, 1)")
        if divergence_factor <= 1.0:
            raise ValueError("divergence_factor must be > 1")
        self.estimator = estimator
        self.checkpoint_dir = Path(checkpoint_dir)
        self.checkpoint_every = checkpoint_every
        self.max_rollbacks = max_rollbacks
        self.rollback_lr_factor = rollback_lr_factor
        self.divergence_factor = divergence_factor
        self.patience = patience
        self.fault_plan = fault_plan
        self.retry = retry
        self.rollbacks = 0
        self.lr_scale = 1.0
        self.log: list[RecoveryEvent] = []
        self.events: dict[str, float] = {}
        #: metric of every epoch currently kept, the divergence baseline
        self._good_metrics: list[float] = []

    # ------------------------------------------------------------------
    @property
    def checkpoint_path(self) -> Path:
        return self.checkpoint_dir / _CHECKPOINT_NAME

    def _emit(self, name: str, amount: float = 1.0) -> None:
        self.events[name] = self.events.get(name, 0.0) + amount
        registry = active_registry()
        if registry is not None:
            registry.counter(f"repro.resilience.{name}").inc(amount)

    # ------------------------------------------------------------------
    def _diverged(self, model: FactorModel, guard: list[float], metric: float | None) -> bool:
        """The per-epoch safety gate: non-finite factors or a bad curve."""
        p, q = model.as_float32()
        if not (np.isfinite(p).all() and np.isfinite(q).all()):
            return True
        if metric is None:
            return False
        if not np.isfinite(metric):
            return True
        if guard and metric > self.divergence_factor * min(guard):
            return True
        if len(guard) >= self.patience:
            probe = TrainHistory()
            probe.test_rmse = guard + [metric]
            if detect_divergence(probe, patience=self.patience) == "diverging":
                return True
        return False

    def _save_checkpoint(self, epoch: int) -> None:
        save_model(
            self.checkpoint_path,
            self.estimator.model,
            epoch=epoch,
            metadata={"lr_scale": self.lr_scale, "rollbacks": self.rollbacks},
        )
        self._emit("checkpoints_saved")
        self.log.append(RecoveryEvent("checkpoint", epoch))

    # -- EpochGuard protocol (called by run_epochs) ----------------------
    def check(
        self, epoch: int, lr: float, model: FactorModel, metric: float | None
    ) -> tuple[FactorModel, int] | None:
        """Keep a healthy epoch; roll a diverged one back to the last good
        checkpoint with a smaller learning rate."""
        if not self._diverged(model, self._good_metrics, metric):
            if metric is not None:
                self._good_metrics.append(float(metric))
            return None
        self._emit("divergence_detected")
        self.log.append(
            RecoveryEvent("divergence", epoch, {"rmse": metric, "lr": lr})
        )
        if self.rollbacks >= self.max_rollbacks:
            raise TrainingDivergedError(
                f"divergence persisted after {self.rollbacks} rollbacks "
                f"(budget {self.max_rollbacks}); last lr {lr:.6g}"
            )
        ckpt = load_model(self.checkpoint_path)
        self.estimator.model = ckpt.model
        self.rollbacks += 1
        self.lr_scale *= self.rollback_lr_factor
        del self._good_metrics[ckpt.epoch:]
        # the failed attempt plus any good epochs past the checkpoint
        self._emit("rollback_epochs_lost", epoch - ckpt.epoch)
        self._emit("rollbacks")
        self.log.append(
            RecoveryEvent(
                "rollback",
                ckpt.epoch,
                {"lr_scale": self.lr_scale, "rollbacks": self.rollbacks},
            )
        )
        registry = active_registry()
        if registry is not None:
            registry.gauge(M.RESILIENCE_LR_SCALE).set(self.lr_scale)
        return ckpt.model, ckpt.epoch

    def accepted(self, epoch: int, model: FactorModel) -> None:
        self._emit("epochs_completed")
        if epoch % self.checkpoint_every == 0:
            self._save_checkpoint(epoch)

    # ------------------------------------------------------------------
    def fit(
        self,
        train: RatingMatrix,
        epochs: int = 20,
        test: RatingMatrix | None = None,
        eval_train: bool = False,
        warm_start: bool = False,
        hooks: TrainerHooks | None = None,
    ) -> TrainHistory:
        """Train for ``epochs`` *good* epochs, recovering along the way.

        The returned :class:`TrainHistory` holds only epochs that survived
        the divergence gate; rolled-back epochs appear in :attr:`log` and
        the ``repro.resilience.*`` counters instead.
        """
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        est = self.estimator
        est._prepare(train, warm_start)
        executor = est._make_executor()
        if self.fault_plan is not None and isinstance(executor, MultiDeviceSGD):
            executor.attach_faults(self.fault_plan, self.retry)
        self.rollbacks = 0
        self.lr_scale = 1.0
        self.log = []
        self._good_metrics = []
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self._save_checkpoint(0)  # epoch-0 safety net: rollback always has a target
        history = run_epochs(
            executor, est.model, train, epochs,
            schedule=lambda epoch: est.schedule(epoch) * self.lr_scale,
            lam=est.lam, scheme=est.scheme, k=est.k,
            feature_bytes=2 if est.half_precision else 4,
            test=test, eval_train=eval_train,
            hooks=hooks if hooks is not None else est.hooks, guard=self,
        )
        injector = getattr(executor, "injector", None)
        if injector is not None:
            for name, amount in injector.events.items():
                self.events[name] = self.events.get(name, 0.0) + amount
        est.history = history
        return history
