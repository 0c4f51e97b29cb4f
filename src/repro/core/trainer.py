"""Public training API: the ``CuMFSGD`` estimator.

Ties together model initialization (Algorithm 1 line 3), a scheduling scheme
(§5), the Eq. 9 learning-rate schedule, optional half-precision storage
(§4), and optional multi-device partitioning (§6), with per-epoch test-RMSE
tracking — the measurement every RMSE-vs-time figure in the paper plots.

:func:`run_epochs` is the one epoch loop behind every trainer — this
estimator, the real-parallelism executors of :mod:`repro.parallel`, and
:class:`repro.resilience.trainer.ResilientTrainer`. Executors only run
epochs (:class:`EpochExecutor`); the loop owns the learning-rate
schedule, per-epoch timing, evaluation, history/event emission and early
stopping.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.core.convergence import check_parallelism
from repro.core.hogwild import BatchHogwild
from repro.core.kernels import UPDATE_ERRSTATE
from repro.core.lr_schedule import (
    AdaGradSchedule,
    LearningRateSchedule,
    NomadSchedule,
)
from repro.core.model import FactorModel
from repro.core.multi_gpu import MultiDeviceSGD
from repro.core.wavefront import WavefrontScheduler
from repro.data.container import RatingMatrix
from repro.metrics.rmse import rmse
from repro.obs.hooks import EpochEvent, TrainerHooks, resolve_hooks

__all__ = [
    "CuMFSGD",
    "EpochExecutor",
    "EpochGuard",
    "TrainHistory",
    "run_epochs",
]

SCHEMES = ("batch_hogwild", "wavefront", "multi_device")


@dataclass
class TrainHistory:
    """Per-epoch record of one training run.

    A thin consumer of the :mod:`repro.obs.hooks` protocol: the trainer
    feeds it one :class:`~repro.obs.hooks.EpochEvent` per epoch through
    :meth:`on_epoch`, exactly like any user-supplied collector. The legacy
    :meth:`record` entry point wraps its arguments in an event and
    delegates, so existing callers keep working.
    """

    epochs: list[int] = field(default_factory=list)
    train_rmse: list[float] = field(default_factory=list)
    test_rmse: list[float] = field(default_factory=list)
    learning_rates: list[float] = field(default_factory=list)
    updates: list[int] = field(default_factory=list)
    #: epoch number of each ``test_rmse`` entry — test RMSE may be recorded
    #: intermittently (``test=None`` epochs mixed in), so ``test_rmse`` must
    #: never be paired positionally with ``epochs``
    test_epochs: list[int] = field(default_factory=list, compare=False, repr=False)
    #: wall seconds per epoch (0.0 for histories built via record());
    #: excluded from equality so instrumented reruns still compare equal
    epoch_seconds: list[float] = field(default_factory=list, compare=False, repr=False)

    active = True  # TrainerHooks protocol: always collecting

    def on_epoch(self, event: EpochEvent) -> None:
        """Consume one epoch event (the hook-protocol entry point)."""
        self.epochs.append(event.epoch)
        self.learning_rates.append(event.lr)
        self.updates.append(event.n_updates)
        self.epoch_seconds.append(event.seconds)
        if event.train_rmse is not None:
            self.train_rmse.append(event.train_rmse)
        if event.test_rmse is not None:
            self.test_rmse.append(event.test_rmse)
            self.test_epochs.append(event.epoch)

    def on_batch(self, event) -> None:  # pragma: no cover - protocol no-op
        pass

    def on_kernel(self, event) -> None:  # pragma: no cover - protocol no-op
        pass

    def on_transfer(self, event) -> None:  # pragma: no cover - protocol no-op
        pass

    def record(
        self,
        epoch: int,
        lr: float,
        n_updates: int,
        train: float | None,
        test: float | None,
        seconds: float = 0.0,
    ) -> None:
        self.on_epoch(
            EpochEvent(
                epoch=epoch,
                lr=lr,
                n_updates=n_updates,
                train_rmse=train,
                test_rmse=test,
                seconds=seconds,
            )
        )

    def truncate(self, n_epochs: int) -> None:
        """Drop every row recorded for an epoch after ``n_epochs``.

        Rows pair by epoch number, not position: ``test_rmse`` entries go
        with :attr:`test_epochs`, the per-epoch lists with :attr:`epochs`
        (``train_rmse`` is recorded every epoch or never).
        """
        kept = bisect_right(self.epochs, n_epochs)
        for rows in (self.epochs, self.train_rmse, self.learning_rates,
                     self.updates, self.epoch_seconds):
            del rows[kept:]
        kept = bisect_right(self.test_epochs, n_epochs)
        del self.test_rmse[kept:]
        del self.test_epochs[kept:]

    @property
    def total_seconds(self) -> float:
        """Total executor wall time across recorded epochs."""
        return float(sum(self.epoch_seconds))

    @property
    def final_test_rmse(self) -> float:
        if not self.test_rmse:
            raise ValueError("no test RMSE was recorded")
        return self.test_rmse[-1]

    @property
    def best_test_rmse(self) -> float:
        if not self.test_rmse:
            raise ValueError("no test RMSE was recorded")
        return min(self.test_rmse)

    def epochs_to_target(self, target: float) -> int | None:
        """First epoch (1-based) whose test RMSE <= target, else None.

        This is the quantity Table 4 combines with modelled epoch time.
        Epoch numbers come from :attr:`test_epochs`, recorded alongside each
        test RMSE — pairing ``epochs`` with ``test_rmse`` positionally would
        misalign whenever evaluation is intermittent (``test=None`` epochs
        mixed in). Histories assembled by hand (lists set directly, no
        ``test_epochs``) fall back to the positional pairing.
        """
        epochs = (
            self.test_epochs
            if len(self.test_epochs) == len(self.test_rmse)
            else self.epochs
        )
        for epoch, value in zip(epochs, self.test_rmse):
            if value <= target:
                return epoch
        return None

    @property
    def total_updates(self) -> int:
        return int(sum(self.updates))

    @property
    def diverged(self) -> bool:
        """Heuristic: RMSE became NaN or grew 5x above its starting point."""
        if not self.test_rmse:
            return False
        arr = np.asarray(self.test_rmse)
        return bool(np.isnan(arr).any() or arr[-1] > 5 * arr[0] + 1e-12)


class EpochExecutor(Protocol):
    """One full pass over ``ratings`` — all an executor does per epoch."""

    def run_epoch(
        self,
        model: FactorModel,
        ratings: RatingMatrix,
        lr: float,
        lam_p: float,
        lam_q: float | None = None,
        hooks: TrainerHooks | None = None,
    ) -> int:
        """Update ``model`` in place; returns the number of SGD updates."""


class EpochGuard(Protocol):
    """Accept-or-rewind decisions between epochs (checkpoint/rollback)."""

    def check(
        self, epoch: int, lr: float, model: FactorModel, metric: float | None
    ) -> tuple[FactorModel, int] | None:
        """Judge the epoch just run. ``None`` keeps it; ``(model, n)``
        discards it and resumes from ``model`` after epoch ``n``."""

    def accepted(self, epoch: int, model: FactorModel) -> None:
        """Epoch ``epoch`` passed :meth:`check` and was recorded."""


#: a context around the whole run that yields the model the epochs update
#: (a process pool's shared-memory copy, say) and tears down on exit
Session = Callable[[FactorModel, RatingMatrix | None], AbstractContextManager]


def run_epochs(
    executor: EpochExecutor,
    model: FactorModel,
    train: RatingMatrix | None,
    epochs: int,
    *,
    schedule: Callable[[int], float],
    lam: float,
    scheme: str,
    k: int,
    nnz: int | None = None,
    feature_bytes: int = 4,
    test: RatingMatrix | None = None,
    target_rmse: float | None = None,
    eval_train: bool = False,
    hooks: TrainerHooks | None = None,
    extras: Callable[[], dict] | None = None,
    session: Session | None = None,
    guard: EpochGuard | None = None,
    verbose: bool = False,
) -> TrainHistory:
    """Drive ``executor`` for up to ``epochs`` epochs; the one fit loop.

    Per epoch: ``lr = schedule(epoch)``, one timed
    ``executor.run_epoch``, evaluation through this module's :func:`rmse`
    (divergence evaluates to inf/nan silently, as the kernels update), an
    :class:`~repro.obs.hooks.EpochEvent` into the returned history and
    ``hooks``, then early stop once ``target_rmse`` is reached on ``test``.

    ``session(model, train)`` is entered around the epochs and yields the
    model they update. ``guard`` may reject an epoch before it is
    recorded and rewind the run to a checkpoint. ``extras()`` supplies
    the events' executor diagnostics, asked only while ``hooks`` listen.
    ``nnz`` defaults to ``train.nnz``.
    """
    if epochs <= 0:
        raise ValueError(f"epochs must be positive, got {epochs}")
    hooks = resolve_hooks(hooks)
    nnz = train.nnz if nnz is None else nnz
    history = TrainHistory()
    opened = session(model, train) if session is not None else nullcontext(model)
    with opened as model:
        epoch = 0
        while epoch < epochs:
            lr = schedule(epoch)
            t0 = time.perf_counter()
            n_updates = executor.run_epoch(model, train, lr, lam, lam, hooks)
            t1 = time.perf_counter()
            p, q = model.as_float32()
            with np.errstate(**UPDATE_ERRSTATE):
                tr = rmse(p, q, train) if eval_train else None
                te = rmse(p, q, test) if test is not None else None
            eval_seconds = time.perf_counter() - t1
            if guard is not None:
                rewind = guard.check(
                    epoch + 1, lr, model, te if te is not None else tr
                )
                if rewind is not None:
                    model, epoch = rewind
                    history.truncate(epoch)
                    continue
            event = EpochEvent(
                epoch=epoch + 1,
                lr=lr,
                n_updates=n_updates,
                train_rmse=tr,
                test_rmse=te,
                seconds=t1 - t0,
                eval_seconds=eval_seconds,
                nnz=nnz,
                k=k,
                feature_bytes=feature_bytes,
                scheme=scheme,
                extra=extras() if extras is not None and hooks.active else {},
            )
            history.on_epoch(event)
            if hooks.active:
                hooks.on_epoch(event)
            epoch += 1
            if guard is not None:
                guard.accepted(epoch, model)
            if verbose:  # pragma: no cover - console output
                parts = [f"epoch {epoch:3d}", f"lr {lr:.5f}"]
                if tr is not None:
                    parts.append(f"train {tr:.4f}")
                if te is not None:
                    parts.append(f"test {te:.4f}")
                print("  ".join(parts))
            if target_rmse is not None and te is not None and te <= target_rmse:
                break
    return history


class CuMFSGD:
    """SGD-based matrix factorization with cuMF_SGD's scheduling schemes.

    Parameters
    ----------
    k:
        Feature dimension.
    scheme:
        ``"batch_hogwild"`` (default, §5.1), ``"wavefront"`` (§5.2), or
        ``"multi_device"`` (§6).
    workers:
        Concurrent parallel workers ``s``.
    lam:
        Regularization λ (same for P and Q, as in the paper).
    schedule:
        Learning-rate schedule; defaults to Eq. 9 with Table 3's Netflix
        (α=0.08, β=0.3).
    half_precision:
        Store P and Q in fp16 (§4); compute stays fp32.
    n_devices, grid:
        Only for ``scheme="multi_device"``: device count and the (i, j)
        partition grid.
    warn_unsafe:
        Raise when the configuration violates the §7.5 safety rule and
        ``strict_safety`` is set; otherwise the check result is stored on
        :attr:`safety` for inspection.
    hooks:
        A :class:`repro.obs.hooks.TrainerHooks` consumer (e.g.
        :class:`repro.obs.TelemetryCollector`). ``None`` picks up the
        ambient collector from :func:`repro.obs.activate` scopes, falling
        back to the zero-cost null object — the numeric results are
        bit-identical either way.
    backend:
        Kernel backend for ``scheme="batch_hogwild"`` wave updates (see
        :mod:`repro.backends`); ``None`` keeps the NumPy reference path.
    """

    def __init__(
        self,
        k: int = 32,
        scheme: str = "batch_hogwild",
        workers: int = 128,
        lam: float = 0.05,
        schedule: LearningRateSchedule | None = None,
        half_precision: bool = False,
        f: int = 256,
        col_blocks: int | None = None,
        n_devices: int = 1,
        grid: tuple[int, int] = (1, 1),
        seed: int = 0,
        scale_factor: float = 1.0,
        strict_safety: bool = False,
        hooks: TrainerHooks | None = None,
        backend: object | None = None,
    ) -> None:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self.scheme = scheme
        self.workers = workers
        self.lam = lam
        self.schedule = schedule or NomadSchedule()
        self.half_precision = half_precision
        self.f = f
        self.col_blocks = col_blocks
        self.n_devices = n_devices
        self.grid = grid
        self.seed = seed
        self.scale_factor = scale_factor
        self.strict_safety = strict_safety
        self.hooks = hooks
        #: kernel backend for the batch-Hogwild! wave updates (name /
        #: BackendType / instance; None = numpy reference). Forwarded to
        #: BatchHogwild; the wavefront and multi-device simulators model
        #: schedules, not kernels, and ignore it.
        self.backend = backend
        self.model: FactorModel | None = None
        self.history: TrainHistory | None = None
        self.safety = None

    # ------------------------------------------------------------------
    def _make_executor(self):
        if self.scheme == "batch_hogwild":
            if isinstance(self.schedule, AdaGradSchedule):
                from repro.core.adagrad import AdaGradHogwild

                return AdaGradHogwild(
                    workers=self.workers, f=self.f, seed=self.seed,
                    schedule=self.schedule,
                )
            return BatchHogwild(
                workers=self.workers, f=self.f, seed=self.seed,
                backend=self.backend,
            )
        if self.scheme == "wavefront":
            return WavefrontScheduler(
                workers=self.workers, col_blocks=self.col_blocks, seed=self.seed
            )
        return MultiDeviceSGD(
            n_devices=self.n_devices,
            i=self.grid[0],
            j=self.grid[1],
            workers=self.workers,
            seed=self.seed,
        )

    def _check_safety(self, ratings: RatingMatrix) -> None:
        if not np.all(np.isfinite(ratings.vals)):
            bad = int(np.count_nonzero(~np.isfinite(ratings.vals)))
            raise ValueError(
                f"ratings contain {bad} non-finite value(s) (NaN/inf); "
                "a single poisoned sample corrupts every factor it touches — "
                "clean the data (e.g. repro.data.preprocess) before training"
            )
        i, j = self.grid if self.scheme == "multi_device" else (1, 1)
        self.safety = check_parallelism(
            self.workers, ratings.n_rows, ratings.n_cols, i, j
        )
        if self.strict_safety and not self.safety.safe:
            raise ValueError(f"unsafe parallelism: {self.safety}")

    def _prepare(self, train: RatingMatrix, warm_start: bool) -> None:
        """Pre-fit checks, then a fresh model unless warm-starting."""
        self._check_safety(train)
        if self.model is None or not warm_start:
            self.model = FactorModel.initialize(
                train.n_rows,
                train.n_cols,
                self.k,
                seed=self.seed,
                scale_factor=self.scale_factor,
                half_precision=self.half_precision,
            )

    # ------------------------------------------------------------------
    def fit(
        self,
        train: RatingMatrix,
        epochs: int = 20,
        test: RatingMatrix | None = None,
        target_rmse: float | None = None,
        eval_train: bool = False,
        warm_start: bool = False,
        verbose: bool = False,
        hooks: TrainerHooks | None = None,
    ) -> TrainHistory:
        """Train for up to ``epochs`` full passes.

        Stops early when ``target_rmse`` is reached on the test set. Returns
        (and stores) the :class:`TrainHistory`. ``hooks`` overrides the
        instance-level hooks for this call only.
        """
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        if target_rmse is not None and test is None:
            raise ValueError("target_rmse requires a test set")
        self._prepare(train, warm_start)
        executor = self._make_executor()
        self.history = run_epochs(
            executor, self.model, train, epochs,
            schedule=self.schedule, lam=self.lam, scheme=self.scheme,
            k=self.k, feature_bytes=2 if self.half_precision else 4,
            test=test, target_rmse=target_rmse, eval_train=eval_train,
            hooks=hooks if hooks is not None else self.hooks,
            extras=lambda: self._executor_extras(executor), verbose=verbose,
        )
        return self.history

    # ------------------------------------------------------------------
    @staticmethod
    def _executor_extras(executor) -> dict:
        """Scheduler-specific diagnostics for the epoch event (hooks only)."""
        extra: dict = {}
        if isinstance(executor, WavefrontScheduler):
            prev = getattr(executor, "_obs_prev_waits", 0)
            extra["lock_wait_events"] = executor.wait_events - prev
            executor._obs_prev_waits = executor.wait_events
            prev_attempts = getattr(executor, "_obs_prev_attempts", 0)
            extra["lock_attempts"] = executor.lock_stats.attempts - prev_attempts
            executor._obs_prev_attempts = executor.lock_stats.attempts
            extra["sched_rounds"] = executor.last_epoch_rounds
        elif isinstance(executor, BatchHogwild):
            if executor.track_collisions and executor.collision_history:
                extra["conflict_rate"] = executor.collision_history[-1]
            # cumulative plan-compilation and workspace counters (the hot
            # path should show cache hits / repermutes, not fresh compiles)
            extra.update(executor.plan_stats.as_extra())
            ws = executor.workspace
            extra["workspace_allocations"] = ws.allocations
            extra["workspace_plan_binds"] = ws.plan_binds
            extra["workspace_waves"] = ws.waves
            extra["workspace_bytes"] = ws.nbytes
        elif isinstance(executor, MultiDeviceSGD):
            extra["transfer_rounds"] = executor.ledger.rounds
            extra["transfer_bytes"] = executor.ledger.total_bytes
        return extra

    # ------------------------------------------------------------------
    def predict(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Predicted ratings for (u, v) pairs after :meth:`fit`."""
        if self.model is None:
            raise RuntimeError("fit() the model before predicting")
        return self.model.predict(np.asarray(rows), np.asarray(cols))

    def score(self, ratings: RatingMatrix) -> float:
        """Test RMSE on a rating set."""
        if self.model is None:
            raise RuntimeError("fit() the model before scoring")
        p, q = self.model.as_float32()
        return rmse(p, q, ratings)
