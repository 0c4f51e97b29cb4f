"""Peak-memory guards for the phases of a ``train`` launch.

NumPy reports its buffers to :mod:`tracemalloc`, so the traced peak of a
call is the most memory the call held at once. Per sample, what each
phase holds at its peak on ``netflix-syn``:

* **generation** (32.5 B per generated sample): the split. Its input
  (12 B), the permutation it draws (8 B) and the one permuted copy whose
  slices are the test and train sets (12 B). The coordinate dedup (under
  19 B: the sorted int64 draw, its keep mask and the kept keys) and the
  rating blocks stay below it. A generator that kept its dedup buffers
  while it permuted a copy of the keys and divided them through int64
  temporaries peaked at 46 B;
* **fit** (11–13 B per training sample beyond P and Q, one or two
  threads, fp32 or fp16): the shuffled order (8 B), then the kernel's
  staging scratch, modules imported on first use and the evals (in fp16
  with their fp32 copy of the model, 2 B per sample). A fit
  that gathered the wave-major plan (52 B) or whose eval gathered whole
  test-set row blocks (22–24 B) would fail;
* **eval** (1.2 MB for the 20k-sample test set in fp16): one fp32 copy
  of the model (0.84 MB, widened once per eval instead of every gathered
  row), one residual per sample (4 B) and one block of gathered rows.
  Gathering every test sample's rows at once, after an fp32 copy of the
  model, held 5.4 MB.

Off the launch path, the fp16 model (0.42 MB) is read in place as well:
scoring one user's 1,780 items holds one block of widened rows (0.34 MB,
against 1.31 MB through an fp32 model copy and whole-array gathers), and
the recovery guard's finiteness test one boolean per factor (0.15 MB,
against 1.0 MB through an fp32 copy).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.backends import c_backend, get_backend
from repro.core.hogwild import BatchHogwild
from repro.core.model import FactorModel
from repro.core.trainer import CuMFSGD
from repro.data.synthetic import SCALED_DATASETS, make_synthetic
from repro.metrics.rmse import rmse
from repro.resilience.trainer import ResilientTrainer

SPEC = SCALED_DATASETS["netflix-syn"]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def netflix_syn():
    return make_synthetic(SPEC, seed=0)


def test_first_plan_holds_one_order(netflix_syn):
    """A fit's first plan draws the shuffled order and keeps it: one int64
    per sample, not a second copy of the draw."""
    nnz = netflix_syn.train.nnz
    sched = BatchHogwild(workers=128, f=256, seed=0)
    plans = []
    peak = _traced_peak(lambda: plans.append(sched.compiled_plan(nnz)))
    assert plans[0].order.nbytes == 8 * nnz
    assert peak < 1.25 * 8 * nnz


def test_generator_peak_per_sample():
    peak = _traced_peak(lambda: make_synthetic(SPEC, seed=0))
    assert peak / SPEC.n_samples < 36


@pytest.mark.skipif(c_backend.find_compiler() is None,
                    reason="no C compiler found")
@pytest.mark.parametrize("half", [False, True], ids=["fp32", "fp16"])
@pytest.mark.parametrize("n_threads", [1, 2])
def test_c_fit_peak_per_sample_beyond_the_factors(netflix_syn, n_threads,
                                                  half):
    if half and not get_backend("c").fp16:
        pytest.skip("fp16 storage runs the c kernel only with F16C")
    train, test = netflix_syn.train, netflix_syn.test
    est = CuMFSGD(k=SPEC.k, workers=64, n_threads=n_threads,
                  half_precision=half, backend="c", seed=0)
    peak = _traced_peak(lambda: est.fit(train, epochs=2, test=test))
    factors = est.model.p.nbytes + est.model.q.nbytes
    assert (peak - factors) / train.nnz < 18


def test_fp16_eval_peak(netflix_syn):
    """One test-set RMSE of an fp16 model holds one fp32 copy of the
    model, one residual per sample and one block of gathered rows, not
    whole gathers."""
    rng = np.random.default_rng(0)
    p = rng.normal(size=(SPEC.m, SPEC.k)).astype(np.float16)
    q = rng.normal(size=(SPEC.n, SPEC.k)).astype(np.float16)
    assert _traced_peak(lambda: rmse(p, q, netflix_syn.test)) < 1.5e6


@pytest.fixture(scope="module")
def fp16_model():
    return FactorModel.initialize(SPEC.m, SPEC.n, SPEC.k, seed=0,
                                  half_precision=True)


def test_fp16_scoring_reads_the_stored_factors(fp16_model):
    """Scoring one user's every item widens one block of rows at a time,
    and each prediction equals a whole-array fp32 gather's, bit for bit."""
    est = CuMFSGD(k=SPEC.k, half_precision=True)
    est.model = fp16_model
    users = np.zeros(SPEC.n, dtype=np.int64)
    items = np.arange(SPEC.n)
    scores = []
    peak = _traced_peak(lambda: scores.append(est.predict(users, items)))
    assert peak < 0.7e6
    p, q = fp16_model.as_float32()
    reference = np.einsum("ij,ij->i", p[users], q[items])
    assert scores[0].dtype == np.float32
    assert scores[0].tobytes() == reference.tobytes()


def test_fp16_divergence_guard_reads_the_stored_factors(fp16_model,
                                                        tmp_path):
    """The recovery guard tests finiteness on fp16 itself, not on an fp32
    copy of the model."""
    trainer = ResilientTrainer(CuMFSGD(k=SPEC.k, half_precision=True),
                               tmp_path)
    verdicts = []
    peak = _traced_peak(
        lambda: verdicts.append(trainer._diverged(fp16_model, [], None)))
    assert verdicts == [False]
    assert peak < 0.5e6
    poisoned = fp16_model.copy()
    poisoned.q[3, 5] = np.inf
    assert trainer._diverged(poisoned, [], None)
