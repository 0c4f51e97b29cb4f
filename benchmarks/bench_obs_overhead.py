"""Instrumentation overhead budget: telemetry must cost < 5% of an epoch.

Two variants of one small synthetic Hogwild run:

* **null path** — hooks resolve to ``NULL_HOOKS``; per epoch the producer
  pays one attribute check, nothing else (the zero-cost discipline of
  ``repro.obs.hooks``);
* **collector path** — a ``TelemetryCollector`` attached; the same replay
  runs, then the epoch's kernel events are read off the plan under the
  collector's ``kernel_stride`` hint, so the Eq. 6 collision fraction is
  a 1-in-stride sample.

Timing method: interleave many short epochs of both variants and compare the
per-variant *minima*. Shared runners show correlated noise bursts of 30-50%
lasting several runs — long enough to poison any mean, and a burst landing
inside one A/B pair poisons a median of ratios too. The minimum over many
interleaved shots is robust: noise is strictly additive, so each variant's
best observed time converges to its true cost.
"""

import time

import pytest

from repro.core.hogwild import BatchHogwild
from repro.core.model import FactorModel
from repro.data.synthetic import DatasetSpec, make_synthetic
from repro.obs import NULL_HOOKS, TelemetryCollector

pytestmark = pytest.mark.obs

#: Overhead budget from the issue: attached telemetry must stay under 5%.
MAX_OVERHEAD = 0.05
#: Stop sampling once the observed bound is comfortably inside the budget.
CONFIDENT_OVERHEAD = 0.03
MIN_ROUNDS = 10
MAX_ROUNDS = 60


@pytest.fixture(scope="module")
def obs_bench_setup():
    # Epochs of ~70 ms: large enough that the collector's fixed per-epoch
    # costs (a handful of sampled Eq. 6 fractions) sit well under the budget,
    # small enough that 2 x ROUNDS epochs stay a few seconds.
    spec = DatasetSpec(
        name="obs-bench", m=2_000, n=1_200, k=32, n_train=200_000, n_test=1_000
    )
    problem = make_synthetic(spec, seed=1)
    model = FactorModel.initialize(spec.m, spec.n, spec.k, seed=0)
    sched = BatchHogwild(workers=128, f=256, seed=0)
    return sched, model, problem


def _epoch_seconds(sched, model, problem, hooks) -> float:
    t0 = time.perf_counter()
    sched.run_epoch(model, problem.train, 0.05, 0.05, hooks=hooks)
    return time.perf_counter() - t0


def test_collector_overhead_under_budget(obs_bench_setup):
    sched, model, problem = obs_bench_setup
    collector = TelemetryCollector()
    # warm both paths (imports, allocator, branch caches)
    _epoch_seconds(sched, model, problem, NULL_HOOKS)
    _epoch_seconds(sched, model, problem, collector)
    base = inst = float("inf")
    rounds = 0
    # Adaptive: noise bursts can hide one variant's clean window for dozens
    # of shots, so keep sampling until the bound is clearly met (or we run
    # out of patience and report the honest, possibly noisy, figure).
    while rounds < MAX_ROUNDS:
        base = min(base, _epoch_seconds(sched, model, problem, NULL_HOOKS))
        inst = min(inst, _epoch_seconds(sched, model, problem, collector))
        rounds += 1
        if rounds >= MIN_ROUNDS and inst / base - 1.0 < CONFIDENT_OVERHEAD:
            break
    overhead = inst / base - 1.0
    print(f"\nbest of {rounds}: null {base * 1e3:.2f} ms, "
          f"collector {inst * 1e3:.2f} ms, overhead {overhead * 100:+.2f}%")
    assert overhead < MAX_OVERHEAD, (
        f"telemetry overhead {overhead:.1%} exceeds the {MAX_OVERHEAD:.0%} budget"
    )
    # the collector really did collect while staying under budget
    assert collector.registry.value("repro.kernel.waves") > 0
    assert collector.registry.get("repro.kernel.wave_collision_fraction").total > 0


def test_stride_keeps_wave_count_exact(obs_bench_setup):
    """Sampling may thin events, never the accounting."""
    sched, model, problem = obs_bench_setup
    collector = TelemetryCollector(kernel_sample_every=64)
    sched.run_epoch(model, problem.train, 0.05, 0.05, hooks=collector)
    n_waves = sum(1 for _ in sched.wave_indices(problem.train.nnz))
    assert collector.registry.value("repro.kernel.waves") == n_waves
