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
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.backends import BackendType, available_backends
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.registry import _ATOL, _RTOL, _RTOL_FP16
from repro.core.hogwild import BatchHogwild
from repro.core.lr_schedule import NomadSchedule
from repro.core.model import FactorModel
from repro.core.trainer import CuMFSGD, run_epochs
from repro.data.container import RatingMatrix
from repro.metrics.rmse import rmse
from repro.parallel.threads import ThreadedHogwild
from repro.resilience.trainer import ResilientTrainer

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
                   lam=0.05, scheme="batch_hogwild", k=k)
        models.append(model)
    serial, threaded = models
    assert threaded.p.dtype == (np.float16 if half else np.float32)
    assert threaded.p.tobytes() == serial.p.tobytes()
    assert threaded.q.tobytes() == serial.q.tobytes()


class _PoisonShardOnce(NumpyBackend):
    """NumPy kernels whose second replay of shard 1 (its thread's second
    epoch) ends by writing NaN into every row of P that shard updated."""

    def __init__(self) -> None:
        self.shard1_calls = 0  # only shard 1's thread touches it

    def replay(self, ws, shard, p, q, rows, cols, vals, lr, lam_p, lam_q):
        updates = super().replay(ws, shard, p, q, rows, cols, vals, lr,
                                 lam_p, lam_q)
        if shard.index == 1:
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
