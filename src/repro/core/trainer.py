"""Public training API: the ``CuMFSGD`` estimator.

Ties together model initialization (Algorithm 1 line 3), a scheduling scheme
(§5) with its worker threads, the Eq. 9 learning-rate schedule, optional
half-precision storage (§4), and optional multi-device partitioning (§6),
with per-epoch test-RMSE tracking — the measurement every RMSE-vs-time
figure in the paper plots.

:func:`run_epochs` is the one epoch loop behind every trainer — this
estimator, the baselines (each an :class:`EpochSolver`), the
real-parallelism executors of :mod:`repro.parallel`, and
:class:`repro.resilience.trainer.ResilientTrainer`.
Executors only run epochs (:class:`EpochExecutor`); the loop owns the
learning-rate schedule, per-epoch timing, evaluation, history/event
emission and early stopping.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol

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
from repro.data.container import RatingMatrix
from repro.metrics.rmse import rmse
from repro.obs.hooks import EpochEvent, TrainerHooks, resolve_hooks

if TYPE_CHECKING:  # pragma: no cover
    from repro.data.blockstore import BlockStore

__all__ = [
    "CuMFSGD",
    "EpochExecutor",
    "EpochGuard",
    "EpochSolver",
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
    """One full pass over ``ratings`` — all an executor does per epoch.
    :func:`run_epochs` looks up two optional methods by name:
    ``session(model, train)``, a context manager around the whole run
    that yields the model the epochs update, and ``epoch_extras()``, the
    executor's diagnostics for the epoch just run (the event's
    ``extra``, asked only while hooks listen)."""

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


def run_epochs(
    executor: EpochExecutor,
    model: FactorModel,
    train: RatingMatrix | None,
    epochs: int,
    *,
    schedule: Callable[[int], float],
    lam: float,
    scheme: str,
    nnz: int | None = None,
    test: RatingMatrix | None = None,
    target_rmse: float | None = None,
    eval_train: bool = False,
    hooks: TrainerHooks | None = None,
    guard: EpochGuard | None = None,
    verbose: bool = False,
) -> TrainHistory:
    """Drive ``executor`` for up to ``epochs`` epochs; the one fit loop.

    Per epoch: ``lr = schedule(epoch)``, one timed
    ``executor.run_epoch``, evaluation through this module's :func:`rmse`
    (divergence evaluates to inf/nan silently, as the kernels update), an
    :class:`~repro.obs.hooks.EpochEvent` into the returned history and
    ``hooks``, then early stop once ``target_rmse`` is reached on ``test``.

    The executor's ``session(model, train)``, if it has one, is entered
    around the epochs, and its ``epoch_extras()``, if it has one,
    supplies each event's diagnostics while ``hooks`` listen. ``guard``
    may reject an epoch before it is recorded and rewind the run to a
    checkpoint. The events' ``k`` and feature bytes are the model's;
    ``nnz`` defaults to ``train.nnz``.
    """
    if epochs <= 0:
        raise ValueError(f"epochs must be positive, got {epochs}")
    hooks = resolve_hooks(hooks)
    nnz = train.nnz if nnz is None else nnz
    history = TrainHistory()
    session = getattr(executor, "session", None)
    extras = getattr(executor, "epoch_extras", None)
    opened = session(model, train) if session is not None else nullcontext(model)
    with opened as model:
        epoch = 0
        while epoch < epochs:
            lr = schedule(epoch)
            t0 = time.perf_counter()
            n_updates = executor.run_epoch(model, train, lr, lam, lam, hooks)
            t1 = time.perf_counter()
            # rmse widens fp16 rows a block at a time: no fp32 model copy
            with np.errstate(**UPDATE_ERRSTATE):
                tr = rmse(model.p, model.q, train) if eval_train else None
                te = rmse(model.p, model.q, test) if test is not None else None
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
                k=model.k,
                feature_bytes=model.p.itemsize,
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


class EpochSolver:
    """Estimator shell: :meth:`fit` draws a fresh :class:`FactorModel` and
    hands ``self`` to :func:`run_epochs`, the one fit loop; :meth:`score`
    is every estimator's test RMSE.

    A subclass sets ``k``, ``lam``, ``seed``, ``schedule`` and its
    ``scheme`` label and is its own :class:`EpochExecutor`: it keeps only
    ``run_epoch`` plus, for per-fit state, a ``session(model, train)``
    context manager. :class:`CuMFSGD` keeps its own ``fit``, which builds
    a separate executor, and inherits only :meth:`score`.
    """

    model: FactorModel | None = None
    history: TrainHistory | None = None

    def fit(
        self,
        train: RatingMatrix,
        epochs: int = 20,
        test: RatingMatrix | None = None,
        target_rmse: float | None = None,
        verbose: bool = False,
    ) -> TrainHistory:
        """Train a fresh model for up to ``epochs`` passes, stopping early
        once ``target_rmse`` is reached on ``test``. Returns (and stores)
        the :class:`TrainHistory`."""
        self.model = FactorModel.initialize(
            train.n_rows, train.n_cols, self.k, seed=self.seed
        )
        self.history = run_epochs(
            self, self.model, train, epochs,
            schedule=self.schedule, lam=self.lam, scheme=self.scheme,
            test=test, target_rmse=target_rmse, verbose=verbose,
        )
        return self.history

    def score(self, ratings: RatingMatrix) -> float:
        """Test RMSE of the fitted model on a rating set."""
        if self.model is None:
            raise RuntimeError("fit() the model before scoring")
        return rmse(self.model.p, self.model.q, ratings)


class CuMFSGD(EpochSolver):
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
        (α=0.08, β=0.3). An :class:`AdaGradSchedule` runs only
        batch_hogwild (``ValueError`` for another scheme).
    half_precision:
        Store P and Q in fp16 (§4); compute stays fp32.
    n_devices, grid:
        Only for ``scheme="multi_device"``: device count and the (i, j)
        partition grid.
    strict_safety:
        Raise ``ValueError`` when the configuration violates the §7.5
        safety rule. Either way the check result is stored on
        :attr:`safety` for inspection.
    hooks:
        A :class:`repro.obs.hooks.TrainerHooks` consumer (e.g.
        :class:`repro.obs.TelemetryCollector`). ``None`` picks up the
        ambient collector from :func:`repro.obs.activate` scopes, falling
        back to the zero-cost null object — the numeric results are
        bit-identical either way.
    backend:
        Kernel backend every scheme's updates run on (see
        :mod:`repro.backends`): batch-Hogwild! waves, wavefront blocks and
        each device's pass. ``None`` keeps the NumPy reference path, the
        only one an :class:`AdaGradSchedule` runs (``ValueError`` for
        another backend).
    n_threads, store:
        OS threads, and a :class:`~repro.data.blockstore.BlockStore` to
        stream the ratings from (``fit(None)`` then takes the shape from
        it). Batch-Hogwild! threads, or a store, race lock-free on the
        shared factors in :class:`~repro.parallel.threads.ThreadedHogwild`
        (§5.1); one thread is :class:`~repro.core.hogwild.BatchHogwild`.
        Wavefront threads share the column-lock array of
        :class:`~repro.core.wavefront.WavefrontScheduler` (§5.2). Neither
        runs an :class:`AdaGradSchedule`, and a store runs batch_hogwild.
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
        strict_safety: bool = False,
        hooks: TrainerHooks | None = None,
        backend: object | None = None,
        n_threads: int = 1,
        store: BlockStore | None = None,
    ) -> None:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if n_threads <= 0:
            raise ValueError(f"n_threads must be positive, got {n_threads}")
        if n_threads > workers and store is None:
            raise ValueError(f"n_threads={n_threads} exceeds the plan's "
                             f"{workers} worker lanes")
        allowed = (("batch_hogwild",) if store is not None
                   else ("batch_hogwild", "wavefront"))
        if (n_threads > 1 or store is not None) and (
                scheme not in allowed
                or isinstance(schedule, AdaGradSchedule)):
            what = (f"scheme {scheme!r}" if scheme not in allowed
                    else "AdaGradSchedule")
            raise ValueError(f"{what} cannot run on threads or a BlockStore, which "
                             "run batch_hogwild (threads also wavefront) without AdaGrad")
        if isinstance(schedule, AdaGradSchedule) and (
                scheme != "batch_hogwild" or backend not in (None, "numpy")):
            what = (f"scheme {scheme!r}" if scheme != "batch_hogwild"
                    else f"backend {backend!r}")
            raise ValueError("AdaGradSchedule runs only batch_hogwild on the "
                             f"numpy kernels, not {what}")
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
        self.strict_safety = strict_safety
        self.hooks = hooks
        #: kernel backend (name / BackendType / instance; None = numpy
        #: reference), forwarded to every executor but AdaGrad's
        self.backend = backend
        self.n_threads = n_threads
        self.store = store
        #: the last fit's epoch executor, for its diagnostics
        self.executor = None
        self.safety = None

    # ------------------------------------------------------------------
    def _make_executor(self):
        if self.scheme == "wavefront":
            from repro.core.wavefront import WavefrontScheduler

            return WavefrontScheduler(
                workers=self.workers, col_blocks=self.col_blocks,
                seed=self.seed, n_threads=self.n_threads, backend=self.backend,
            )
        if self.n_threads > 1 or self.store is not None:
            from repro.parallel.threads import ThreadedHogwild

            return ThreadedHogwild(
                n_threads=self.n_threads, seed=self.seed,
                workers=self.workers, f=self.f, backend=self.backend,
                store=self.store,
            )
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
        from repro.core.multi_gpu import MultiDeviceSGD

        return MultiDeviceSGD(
            n_devices=self.n_devices,
            i=self.grid[0],
            j=self.grid[1],
            workers=self.workers,
            seed=self.seed,
            backend=self.backend,
        )

    def _check_safety(self, train: RatingMatrix | None) -> None:
        if train is not None and not np.all(np.isfinite(train.vals)):
            bad = int(np.count_nonzero(~np.isfinite(train.vals)))
            raise ValueError(
                f"ratings contain {bad} non-finite value(s) (NaN/inf); "
                "a single poisoned sample corrupts every factor it touches — "
                "clean the data (e.g. repro.data.preprocess) before training"
            )
        shape = train if self.store is None else self.store
        i, j = self.grid if self.scheme == "multi_device" else (1, 1)
        self.safety = check_parallelism(
            self.workers, shape.n_rows, shape.n_cols, i, j
        )
        if self.strict_safety and not self.safety.safe:
            raise ValueError(f"unsafe parallelism: {self.safety}")

    def _prepare(self, train: RatingMatrix | None, warm_start: bool) -> int:
        """Pre-fit checks, then a fresh model unless warm-starting; returns
        the samples per epoch. Out of core the store sets the shape."""
        if self.store is None:
            if train is None:
                raise ValueError("train is required without a BlockStore")
            source = train
        else:
            source = self.store
            if train is not None and train.shape != source.shape:
                raise ValueError(f"train shape {train.shape} disagrees with "
                                 f"store shape {source.shape}")
        self._check_safety(train)
        if self.model is None or not warm_start:
            self.model = FactorModel.initialize(
                source.n_rows,
                source.n_cols,
                self.k,
                seed=self.seed,
                half_precision=self.half_precision,
            )
        return source.nnz

    # ------------------------------------------------------------------
    def fit(
        self,
        train: RatingMatrix | None,
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
        instance-level hooks for this call only. With a ``store``,
        ``train`` may be None.
        """
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        if target_rmse is not None and test is None:
            raise ValueError("target_rmse requires a test set")
        nnz = self._prepare(train, warm_start)
        self.executor = self._make_executor()
        self.history = run_epochs(
            self.executor, self.model, train, epochs,
            schedule=self.schedule, lam=self.lam, scheme=self.scheme,
            nnz=nnz, test=test, target_rmse=target_rmse,
            eval_train=eval_train, verbose=verbose,
            hooks=hooks if hooks is not None else self.hooks,
        )
        return self.history

    # ------------------------------------------------------------------
    def predict(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Predicted ratings for (u, v) pairs after :meth:`fit`."""
        if self.model is None:
            raise RuntimeError("fit() the model before predicting")
        return self.model.predict(np.asarray(rows), np.asarray(cols))
