"""Peak-memory guards for the two largest phases of a ``train`` launch.

NumPy reports its buffers to :mod:`tracemalloc`, so the traced peak of a
call is the most memory the call held at once. Per sample, the bounds sit
well above what one sample costs (the shuffled order is 8 B of a fit's
peak, the 20k-sample test set's eval most of the rest) and well below an
epoch-sized copy per sample: a fit that gathered the wave-major plan
(52 B per sample on ``c``) or a generator that gathered both factor
matrices for every sample at once (64 B) would fail.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.backends import c_backend, get_backend
from repro.core.hogwild import BatchHogwild
from repro.core.trainer import CuMFSGD
from repro.data.synthetic import SCALED_DATASETS, make_synthetic

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
    assert peak / SPEC.n_samples < 56


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
    assert (peak - factors) / train.nnz < 32
