"""Differential oracle: every batch-Hogwild! run against the serial reference.

Threads are a setting of the one estimator (``CuMFSGD(n_threads=...)``), so
one matrix covers every worker count: ``n_threads`` {1, 2, 3} x backend
{numpy, c} x storage {fp32, fp16} x awkward shapes -- k = 5 (not a multiple
of 8), k = 13 (an 8-wide vector body plus a scalar tail), fewer samples
than worker lanes, a single row, a single column, and an empty row and
column. Each case is a short ``CuMFSGD`` fit checked
against the NumPy serial reference (one thread, the numpy backend, the
case's storage). The contract per case:

* one thread on the reference's backend: bit identity. One thread without
  a store *is* ``BatchHogwild`` by construction, so the thread executor is
  pinned separately: ``ThreadedHogwild(n_threads=1)`` under ``run_epochs``
  equals ``BatchHogwild`` bit for bit, in fp32 and fp16, on each backend;
* ``c`` at one thread: within the backend registry's verification
  tolerance of the reference's factors;
* more than one thread: every epoch applies exactly nnz updates, the
  factors stay finite, and each epoch's test RMSE is within the race
  tolerance :func:`race_tolerance` states and justifies.

The chaos test poisons one thread's shard with NaN mid-run and checks that
:class:`~repro.resilience.trainer.ResilientTrainer` rolls back once and
recovers on the racing executor.

The wavefront scheme (§5.2) has its own contract over the same shapes, in
fp32 and fp16, on a 4-row grid. On one thread, ``WavefrontScheduler``
(what ``CuMFSGD(scheme="wavefront")`` runs) equals :class:`RoundScheduler`,
the round loop the scheduler ran before it took threads, bit for bit and
event for event. On 2 and 4 threads every epoch applies exactly nnz
updates, the factors stay finite, and each epoch's test RMSE is within
:func:`wavefront_tolerance`.

Both block schemes run the estimator's kernel backend: a wavefront block
is one ``serial_update``, a multi-device block one ``replay``. A counting
backend pins that dispatch. On one thread (wavefront) or one device
(multi-device), ``c`` keeps every shape's factors within the registry's
verification tolerance of the NumPy fit's, in fp32 and fp16.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np
import pytest

from repro.backends import BackendType, available_backends, get_backend
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.registry import _ATOL, _RTOL, _RTOL_FP16
from repro.core.hogwild import BatchHogwild
from repro.core.kernels import WaveWorkspace, sgd_serial_update
from repro.core.lr_schedule import NomadSchedule
from repro.core.model import FactorModel
from repro.core.partition import GridPartition, grid_block_index
from repro.core.trainer import CuMFSGD, run_epochs
from repro.core.wavefront import WavefrontScheduler
from repro.data.container import RatingMatrix
from repro.metrics.rmse import rmse
from repro.obs.hooks import BatchEvent, RecordingHooks, resolve_hooks
from repro.parallel.threads import ThreadedHogwild
from repro.resilience.trainer import ResilientTrainer
from repro.sched.column_lock import ColumnLockArray

EPOCHS = 3
WORKERS, F, SEED = 16, 8, 1

#: name -> (m, n, k, train nnz, test nnz, leave the last row and column empty)
SHAPES = {
    "k5": (150, 100, 5, 6_000, 600, False),
    "k13": (150, 100, 13, 6_000, 600, False),
    "nnz-below-lanes": (50, 40, 8, 12, 20, False),
    "m1": (1, 240, 8, 200, 40, False),
    "n1": (240, 1, 8, 200, 40, False),
    "empty-row-col": (150, 100, 8, 6_000, 600, True),
}


@lru_cache(maxsize=None)
def problem(shape: str) -> tuple[RatingMatrix, RatingMatrix]:
    """Seeded low-rank ratings of ``shape``, split into train and test."""
    m, n, k, nnz, n_test, empty = SHAPES[shape]
    rng = np.random.default_rng(20261017)
    rated_m, rated_n = (m - 1, n - 1) if empty else (m, n)
    cells = rng.choice(rated_m * rated_n, size=nnz + n_test, replace=False)
    rows, cols = cells // rated_n, cells % rated_n
    p = rng.standard_normal((m, k))
    q = rng.standard_normal((n, k))
    vals = (np.einsum("ij,ij->i", p[rows], q[cols]) / np.sqrt(k)
            + rng.normal(0.0, 0.1, len(cells))).astype(np.float32)

    def part(sl: slice) -> RatingMatrix:
        return RatingMatrix(rows=rows[sl].astype(np.int32),
                            cols=cols[sl].astype(np.int32), vals=vals[sl],
                            n_rows=m, n_cols=n, name=shape)

    return part(slice(0, nnz)), part(slice(nnz, None))


def fit(shape: str, n_threads: int, backend: str, half: bool) -> CuMFSGD:
    train, test = problem(shape)
    est = CuMFSGD(k=SHAPES[shape][2], workers=WORKERS, f=F, seed=SEED,
                  half_precision=half, backend=backend, n_threads=n_threads)
    est.fit(train, epochs=EPOCHS, test=test)
    return est


@lru_cache(maxsize=None)
def reference(shape: str, half: bool) -> CuMFSGD:
    """The NumPy serial reference for ``shape`` at this storage."""
    return fit(shape, 1, "numpy", half)


def race_tolerance(shape: str) -> float:
    """Allowed per-epoch test-RMSE gap between a racing fit and the serial
    reference.

    A racing run is HOGWILD!'s lock-free SGD (Niu et al., arXiv
    1106.5730): an update differs from its serial counterpart only when it
    touches a row or column that an update in flight on another thread
    also touches. At most the plan's live lanes ``s`` are in flight at
    once, so an update collides with probability
    ``rho <= min(1, s * (1/m + 1/n))``, the §7.5 collision estimate.
    HOGWILD!'s bound on the racing run's excess error is linear in that
    conflict probability, and every step scales with the residual, whose
    size at the start is the untrained model's test RMSE ``r0``. The
    tolerance is ``rho * r0 / 2``.

    Ten repeats of every racing case of this matrix on a 2-vCPU host
    reached at most a third of it (k = 5 at its last epoch, where the
    descent is steepest), which leaves room for scheduling noise on other
    hosts. A run that made no progress would still miss the tolerance on
    the two shapes that train far (k = 5 and the empty row/column), and a
    dropped or poisoned shard fails the update count or finiteness checks
    before the tolerance matters.
    """
    train, test = problem(shape)
    live = min(WORKERS, -(-train.nnz // F))
    rho = min(1.0, live * (1 / train.n_rows + 1 / train.n_cols))
    init = FactorModel.initialize(train.n_rows, train.n_cols,
                                  SHAPES[shape][2], seed=SEED)
    return rho * rmse(*init.as_float32(), test) / 2


# -- backend configurations, forced (SNIPPETS.md snippet 3's fixture style) --
@pytest.fixture
def numpy_forced() -> str:
    """The bit-exact NumPy reference kernel, whatever else is present."""
    return "numpy"


@pytest.fixture
def c_forced() -> str:
    """The compiled kernel, forced; skipped where it is not present."""
    if BackendType.C not in available_backends():
        pytest.skip("the c backend needs a C compiler")
    return "c"


@pytest.fixture(params=["numpy_forced", "c_forced"], ids=["numpy", "c"])
def backend(request) -> str:
    return request.getfixturevalue(request.param)


@pytest.fixture(params=[False, True], ids=["fp32", "fp16"])
def half(request) -> bool:
    return request.param


@pytest.mark.parametrize("n_threads", [1, 2, 3])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_fit_matches_serial_reference(shape, n_threads, backend, half):
    train, _ = problem(shape)
    ref = reference(shape, half)
    est = fit(shape, n_threads, backend, half)
    history = est.history
    assert history.updates == [train.nnz] * EPOCHS
    if n_threads > 1:
        assert type(est.executor) is ThreadedHogwild
        assert np.isfinite(est.model.p).all()
        assert np.isfinite(est.model.q).all()
        gap = np.abs(np.array(history.test_rmse)
                     - np.array(ref.history.test_rmse))
        assert gap.max() <= race_tolerance(shape), (gap, race_tolerance(shape))
    elif backend == "numpy":
        assert type(est.executor) is BatchHogwild
        assert est.model.p.tobytes() == ref.model.p.tobytes()
        assert est.model.q.tobytes() == ref.model.q.tobytes()
    else:  # c against the numpy reference
        assert type(est.executor) is BatchHogwild
        rtol = _RTOL_FP16 if half else _RTOL
        for got, want in ((est.model.p, ref.model.p),
                          (est.model.q, ref.model.q)):
            np.testing.assert_allclose(got.astype(np.float32),
                                       want.astype(np.float32),
                                       rtol=rtol, atol=_ATOL)


def test_thread_executor_at_one_thread_is_batch_hogwild(backend, half):
    """The executor ``n_threads > 1`` runs replays the serial plan: at one
    thread, under the one epoch loop, it is BatchHogwild bit for bit."""
    train, _ = problem("k5")
    k = SHAPES["k5"][2]
    models = []
    for executor in (
        BatchHogwild(workers=WORKERS, f=F, seed=SEED, backend=backend),
        ThreadedHogwild(n_threads=1, workers=WORKERS, f=F, seed=SEED,
                        backend=backend),
    ):
        model = FactorModel.initialize(train.n_rows, train.n_cols, k,
                                       seed=SEED, half_precision=half)
        run_epochs(executor, model, train, EPOCHS, schedule=NomadSchedule(),
                   lam=0.05, scheme="batch_hogwild")
        models.append(model)
    serial, threaded = models
    assert threaded.p.dtype == (np.float16 if half else np.float32)
    assert threaded.p.tobytes() == serial.p.tobytes()
    assert threaded.q.tobytes() == serial.q.tobytes()


class _PoisonShardOnce(NumpyBackend):
    """NumPy kernels whose second replay of shard 1 (its thread's second
    epoch) ends by writing NaN into every row of P that shard updated.
    The registry's gate replays whole plans, which are no thread's shard."""

    def __init__(self) -> None:
        self.shard1_calls = 0  # only shard 1's thread touches it

    def replay(self, ws, shard, p, q, rows, cols, vals, lr, lam_p, lam_q,
               **observers):
        updates = super().replay(ws, shard, p, q, rows, cols, vals, lr,
                                 lam_p, lam_q, **observers)
        if getattr(shard, "index", None) == 1:
            self.shard1_calls += 1
            if self.shard1_calls == 2:
                lanes = shard.plan.positions(
                    shard.col_lo, shard.col_hi,
                    np.empty((shard.n_waves, shard.width), np.int64))
                p[rows[lanes[lanes >= 0]]] = np.nan
        return updates


def test_poisoned_shard_rolls_back_once_and_recovers(tiny_problem, tmp_path):
    """Chaos: NaN lands in one racing thread's rows mid-run. The guard sees
    non-finite factors after epoch 2, restores epoch 1's checkpoint at half
    the learning rate, and the run finishes its six epochs healthy."""
    est = CuMFSGD(k=8, n_threads=2, workers=32, f=16, seed=0,
                  backend=_PoisonShardOnce())
    trainer = ResilientTrainer(est, tmp_path)
    history = trainer.fit(tiny_problem.train, epochs=6,
                          test=tiny_problem.test)
    assert trainer.rollbacks == 1
    assert trainer.lr_scale == 0.5
    assert [e.kind for e in trainer.log if e.kind != "checkpoint"] == [
        "divergence", "rollback"]
    assert history.epochs == [1, 2, 3, 4, 5, 6]
    assert np.isfinite(history.test_rmse).all()
    assert history.final_test_rmse < history.test_rmse[0]


# ---------------------------------------------------------------------------
# the wavefront scheme: one executor, any thread count
# ---------------------------------------------------------------------------
#: grid rows of every wavefront case (so 4 threads own one row each)
WAVE_WORKERS = 4


class RoundScheduler:
    """The reference: the wavefront scheduler's round loop on one thread,
    as it ran before the scheduler took threads. Each round every
    unfinished worker, in an order drawn afresh, tries to acquire its next
    column; the granted blocks run back to back, each shuffled and replayed
    serially."""

    def __init__(self, workers: int, seed: int) -> None:
        self.workers, self.col_blocks = workers, 2 * workers
        self.rng = np.random.default_rng(seed)

    def run_epoch(self, model, ratings, lr, lam_p, lam_q=None, hooks=None):
        hooks = resolve_hooks(hooks)
        s, c, rng = self.workers, self.col_blocks, self.rng
        index = grid_block_index(ratings, s, c)
        ws = WaveWorkspace()
        locks = ColumnLockArray(c)
        sequences = [rng.permutation(c) for _ in range(s)]
        position = np.zeros(s, dtype=np.int64)
        waits = np.zeros(s, dtype=np.int64)
        updates, remaining = 0, set(range(s))
        while remaining:
            granted = []
            for w in rng.permutation(sorted(remaining)):
                col = int(sequences[w][position[w]])
                if locks.try_acquire(col, int(w)):
                    granted.append((int(w), col))
                else:
                    waits[w] += 1
            for w, col in granted:
                idx = index[w * c + col]
                if len(idx):
                    idx = idx[rng.permutation(len(idx))]
                    sgd_serial_update(model.p, model.q, ratings.rows[idx],
                                      ratings.cols[idx], ratings.vals[idx],
                                      lr, lam_p, lam_q, workspace=ws)
                    updates += len(idx)
                locks.release(col, w)
                if hooks.active:
                    hooks.on_batch(BatchEvent("wavefront", w, (w, col),
                                              len(idx), int(waits[w])))
                    waits[w] = 0
                position[w] += 1
                if position[w] == c:
                    remaining.discard(w)
        return updates


def wave_fit(shape: str, half: bool, executor, hooks=None):
    """Test RMSE per epoch and the model of one wavefront run of
    ``executor`` from the oracle's initial model."""
    train, test = problem(shape)
    model = FactorModel.initialize(train.n_rows, train.n_cols,
                                   SHAPES[shape][2], seed=SEED,
                                   half_precision=half)
    history = run_epochs(executor, model, train, EPOCHS,
                         schedule=NomadSchedule(), lam=0.05,
                         scheme="wavefront", test=test, hooks=hooks)
    return history, model


@lru_cache(maxsize=None)
def wave_reference(shape: str, half: bool) -> np.ndarray:
    """Per-epoch test RMSE of the one-thread wavefront run at ``SEED``."""
    history, _ = wave_fit(shape, half, WavefrontScheduler(WAVE_WORKERS,
                                                          seed=SEED))
    return np.array(history.test_rmse)


@lru_cache(maxsize=None)
def wavefront_tolerance(shape: str, half: bool) -> float:
    """Allowed per-epoch test-RMSE gap between a threaded wavefront run and
    the one-thread run at the same seed.

    Granted blocks share no grid row and no column, so threads never race:
    a threaded epoch is a serial order of blocks that the one-thread round
    loop could also have drawn, from other scheduler draws. The natural
    yardstick is therefore the spread of one-thread runs over scheduler
    seeds from the same initial model: the widest per-epoch gap of eight
    such runs from the reference, doubled. Threads keep the reference's
    column walks (the dispatching thread draws them from the seeded
    generator) and differ only in round orders, in-block shuffles and
    interleaving, so they sit nearer the reference than a fresh seed. On
    a 2-vCPU host, 30 threaded runs per shape on 2 and 4 threads reached
    at most 0.95 of the undoubled spread (k = 5 on 4 threads); doubling
    leaves room for other hosts' scheduling. A dropped or repeated block
    fails the update count before the tolerance matters.
    """
    ref = wave_reference(shape, half)
    gaps = []
    for seed in range(100, 108):
        history, _ = wave_fit(shape, half, WavefrontScheduler(WAVE_WORKERS,
                                                              seed=seed))
        gaps.append(np.abs(np.array(history.test_rmse) - ref).max())
    return 2 * max(gaps)


@pytest.mark.parametrize("shape", list(SHAPES))
def test_wavefront_one_thread_is_the_round_loop(shape, half):
    """One thread owns every grid row and makes every draw from the seeded
    generator, in the round loop's order: same factors, same events."""
    runs = []
    for executor in (RoundScheduler(WAVE_WORKERS, SEED),
                     WavefrontScheduler(WAVE_WORKERS, seed=SEED)):
        hooks = RecordingHooks()
        history, model = wave_fit(shape, half, executor, hooks)
        runs.append((history.updates, model, hooks.batches))
    (ref_updates, ref, ref_events), (updates, got, events) = runs
    assert updates == ref_updates == [problem(shape)[0].nnz] * EPOCHS
    assert got.p.dtype == (np.float16 if half else np.float32)
    assert got.p.tobytes() == ref.p.tobytes()
    assert got.q.tobytes() == ref.q.tobytes()
    assert events == ref_events


@pytest.mark.parametrize("n_threads", [2, 4])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_wavefront_threads_stay_within_tolerance(shape, n_threads, half):
    train, _ = problem(shape)
    history, model = wave_fit(shape, half, WavefrontScheduler(
        WAVE_WORKERS, seed=SEED, n_threads=n_threads))
    assert history.updates == [train.nnz] * EPOCHS
    assert np.isfinite(model.p).all() and np.isfinite(model.q).all()
    gap = np.abs(np.array(history.test_rmse) - wave_reference(shape, half))
    tolerance = wavefront_tolerance(shape, half)
    assert gap.max() <= tolerance, (gap, tolerance)


def test_wavefront_threads_deliver_events_on_the_dispatching_thread(
        tiny_problem):
    """Each thread buffers its blocks' events; the dispatching thread
    delivers all of them after the join, so a consumer never runs on two
    threads at once."""

    class ThreadRecorder(RecordingHooks):
        """Also notes which thread each batch event arrives on."""

        def __init__(self) -> None:
            super().__init__()
            self.threads: set[int] = set()

        def on_batch(self, event):
            super().on_batch(event)
            self.threads.add(threading.get_ident())

    hooks = ThreadRecorder()
    est = CuMFSGD(k=8, scheme="wavefront", workers=8, n_threads=2, seed=0)
    est.fit(tiny_problem.train, epochs=1, hooks=hooks)
    assert type(est.executor) is WavefrontScheduler
    assert len(hooks.batches) == 8 * 16
    assert sorted(e.block for e in hooks.batches) == [
        (w, c) for w in range(8) for c in range(16)]
    assert hooks.threads == {threading.get_ident()}


# ---------------------------------------------------------------------------
# the block schemes on the backend registry
# ---------------------------------------------------------------------------
def block_fit(shape: str, scheme: str, backend, half: bool = False,
              n_threads: int = 1) -> CuMFSGD:
    """A wavefront fit on the oracle's 4-row grid, or a one-device fit on a
    grid of up to 4 x 4 blocks (fewer where the shape has fewer rows or
    columns)."""
    train, _ = problem(shape)
    est = CuMFSGD(k=SHAPES[shape][2], scheme=scheme, workers=WAVE_WORKERS,
                  seed=SEED, half_precision=half, backend=backend,
                  n_threads=n_threads,
                  grid=(min(4, train.n_rows), min(4, train.n_cols)))
    est.fit(train, epochs=EPOCHS)
    return est


class _CountingBackend(NumpyBackend):
    """The NumPy reference, noting the samples of every kernel call."""

    def __init__(self) -> None:
        self.serial: list[int] = []
        self.replays: list[int] = []

    def serial_update(self, p, q, rows, *args, **kwargs):
        self.serial.append(len(rows))  # one GIL-atomic append per call
        return super().serial_update(p, q, rows, *args, **kwargs)

    def replay(self, ws, shard, p, q, rows, *args, **observers):
        self.replays.append(len(rows))
        return super().replay(ws, shard, p, q, rows, *args, **observers)


@pytest.mark.parametrize("scheme, n_threads", [
    ("wavefront", 1), ("wavefront", 2), ("multi_device", 1)])
def test_block_schemes_dispatch_through_the_backend(scheme, n_threads):
    """Every non-empty block is one kernel call on the estimator's backend:
    a wavefront block one ``serial_update``, a multi-device block one
    ``replay``. On one thread the fit is the ``backend=None`` fit, bit for
    bit."""
    train, _ = problem("k5")
    backend = _CountingBackend()
    get_backend(backend)  # the verification gate calls the kernels too
    backend.serial.clear()
    backend.replays.clear()
    est = block_fit("k5", scheme, backend, n_threads=n_threads)
    if scheme == "wavefront":
        index = grid_block_index(train, WAVE_WORKERS, 2 * WAVE_WORKERS)
        calls, other = backend.serial, backend.replays
    else:
        index = [b.sample_index for b in GridPartition(train, 4, 4).blocks()]
        calls, other = backend.replays, backend.serial
    blocks = [len(idx) for idx in index if len(idx)]
    assert sorted(calls) == sorted(blocks * EPOCHS)
    assert other == []
    if n_threads == 1:
        ref = block_fit("k5", scheme, None)
        assert est.model.p.tobytes() == ref.model.p.tobytes()
        assert est.model.q.tobytes() == ref.model.q.tobytes()


@pytest.mark.parametrize("scheme", ["wavefront", "multi_device"])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_block_schemes_on_c_match_numpy(shape, scheme, c_forced, half):
    """On one thread or one device, the ``c`` fit's factors lie within the
    registry's verification tolerance of the NumPy fit's."""
    ref = block_fit(shape, scheme, "numpy", half)
    est = block_fit(shape, scheme, c_forced, half)
    assert est.history.updates == ref.history.updates
    rtol = _RTOL_FP16 if half else _RTOL
    for got, want in ((est.model.p, ref.model.p), (est.model.q, ref.model.q)):
        assert got.dtype == want.dtype
        np.testing.assert_allclose(got.astype(np.float32),
                                   want.astype(np.float32),
                                   rtol=rtol, atol=_ATOL)
