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
* **fit** (10–11 B per training sample beyond P and Q, one or two
  threads, fp32 or fp16): the shuffled order (8 B), then the kernel's
  staging scratch, modules imported on first use and the evals. A fit
  that gathered the wave-major plan (52 B) or whose eval gathered whole
  test-set row blocks (22–24 B) would fail;
* **eval** (0.4 MB for the 20k-sample test set in fp16): one residual
  per sample (4 B) and one block of gathered rows, widened to fp32 a
  block at a time. Gathering every test sample's rows at once, after an
  fp32 copy of the model, held 5.4 MB.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.backends import c_backend, get_backend
from repro.core.hogwild import BatchHogwild
from repro.core.trainer import CuMFSGD
from repro.data.synthetic import SCALED_DATASETS, make_synthetic
from repro.metrics.rmse import rmse

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
    """One test-set RMSE of an fp16 model holds one residual per sample
    and one block of widened rows, not an fp32 model or whole gathers."""
    rng = np.random.default_rng(0)
    p = rng.normal(size=(SPEC.m, SPEC.k)).astype(np.float16)
    q = rng.normal(size=(SPEC.n, SPEC.k)).astype(np.float16)
    assert _traced_peak(lambda: rmse(p, q, netflix_syn.test)) < 1.5e6
