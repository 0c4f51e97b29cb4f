"""Ablation benches for the design decisions DESIGN.md calls out.

1. Half-precision storage (§4): modelled throughput doubles; measured RMSE
   unaffected.
2. Batch-Hogwild! chunk size ``f`` (Eq. 8): convergence insensitive above
   the cache-line bound.
3. Wavefront grid shape: ``s x 2s`` vs tighter grids — wait events and
   convergence.
4. Stream pipeline depth (§6.2): deeper staging hides more transfer.
5. Scheduler policy ladder: O(a²) table -> O(a) rowcol -> wavefront ->
   hogwild, modelled at 768 workers.
"""

import numpy as np
import pytest

from repro.core.hogwild import BatchHogwild
from repro.core.model import FactorModel
from repro.core.trainer import CuMFSGD
from repro.core.wavefront import WavefrontScheduler
from repro.data.synthetic import PAPER_DATASETS
from repro.gpusim.simulator import cumf_throughput, staged_epoch_seconds
from repro.gpusim.specs import MAXWELL_TITAN_X
from repro.gpusim.streams import StagedBlock, StreamPipeline
from repro.metrics.rmse import rmse

NETFLIX = PAPER_DATASETS["netflix"]


def test_ablation_half_precision(benchmark, bench_problem):
    """fp16 halves modelled bytes -> 2x modelled updates/s; measured RMSE
    within 2% of fp32."""
    finals = {}

    def run():
        for half in (False, True):
            est = CuMFSGD(k=16, workers=64, lam=0.05, seed=0, half_precision=half)
            hist = est.fit(bench_problem.train, epochs=4, test=bench_problem.test)
            finals[half] = hist.final_test_rmse
        return finals

    benchmark.pedantic(run, rounds=1, iterations=1)
    model_ratio = (
        cumf_throughput(MAXWELL_TITAN_X, NETFLIX, half_precision=True).updates_per_sec
        / cumf_throughput(MAXWELL_TITAN_X, NETFLIX, half_precision=False).updates_per_sec
    )
    print(f"\nmodelled fp16/fp32 throughput ratio: {model_ratio:.2f}")
    print(f"measured RMSE fp32={finals[False]:.4f} fp16={finals[True]:.4f}")
    assert model_ratio == pytest.approx(2.0, rel=0.02)
    assert finals[True] == pytest.approx(finals[False], rel=0.02)


def test_ablation_hogwild_f(benchmark, bench_problem):
    """Paper: f values beyond the Eq. 8 bound 'yield similar benefit'."""
    finals = {}

    def run():
        for f in (16, 64, 256, 1024):
            sched = BatchHogwild(workers=64, f=f, seed=0)
            model = FactorModel.initialize(
                bench_problem.spec.m, bench_problem.spec.n, 16, seed=0
            )
            for _ in range(3):
                sched.run_epoch(model, bench_problem.train, 0.08, 0.05)
            p, q = model.as_float32()
            finals[f] = rmse(p, q, bench_problem.test)
        return finals

    benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nRMSE by f: {finals}")
    values = list(finals.values())
    assert max(values) - min(values) < 0.02


def test_ablation_wavefront_grid(benchmark, bench_problem):
    """c = 2s (paper) vs c = s: the tight grid forces far more waiting."""
    waits = {}

    def run():
        for c_mult in (1, 2, 4):
            sched = WavefrontScheduler(workers=8, col_blocks=8 * c_mult, seed=0)
            model = FactorModel.initialize(
                bench_problem.spec.m, bench_problem.spec.n, 16, seed=0
            )
            sched.run_epoch(model, bench_problem.train, 0.08, 0.05)
            waits[c_mult] = sched.wait_events
        return waits

    benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nwait events by c/s: {waits}")
    assert waits[1] > waits[2]


def test_ablation_pipeline_depth(benchmark):
    """Deeper staging monotonically shrinks the Hugewiki epoch makespan."""
    hugewiki = PAPER_DATASETS["hugewiki"]
    rate = cumf_throughput(MAXWELL_TITAN_X, hugewiki).updates_per_sec

    def run():
        return {
            depth: staged_epoch_seconds(MAXWELL_TITAN_X, hugewiki, rate, depth=depth)
            for depth in (1, 2, 4, 8)
        }

    spans = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nHugewiki epoch seconds by depth: {spans}")
    assert spans[1] >= spans[2] >= spans[4] >= spans[8]
    assert spans[2] < 0.9 * spans[1]  # paper's two-resident-blocks choice pays


def test_ablation_scheduler_ladder(benchmark):
    """Modelled updates/s at full Maxwell occupancy across the policy
    ladder; each rung removes scheduling overhead."""

    def run():
        ladder = {}
        for scheme in ("libmf_gpu", "wavefront", "batch_hogwild"):
            ladder[scheme] = cumf_throughput(
                MAXWELL_TITAN_X, NETFLIX, scheme=scheme, half_precision=False
            ).mupdates
        return ladder

    ladder = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nMupdates/s at 768 workers (fp32): {ladder}")
    assert ladder["libmf_gpu"] < ladder["wavefront"] <= ladder["batch_hogwild"]


def test_ablation_minibatch_size(benchmark, bench_problem):
    """§3's argument against batch SGD: growing the mini-batch to saturate
    a GPU hurts per-epoch convergence — why cuMF_SGD avoids the BIDMach
    design entirely."""
    from repro.baselines.bidmach import BIDMachSGD

    finals = {}

    def run():
        for batch in (512, 4096, 32_768):
            est = BIDMachSGD(k=16, batch=batch, lam=0.05, seed=0)
            hist = est.fit(bench_problem.train, epochs=3, test=bench_problem.test)
            finals[batch] = hist.final_test_rmse
        return finals

    benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nRMSE after 3 epochs by mini-batch size: {finals}")
    assert finals[512] < finals[32_768]


def test_ablation_race_wave_width(benchmark, bench_problem):
    """The engine's own knob: wider concurrent waves = more collisions and
    slower convergence per epoch — the s vs min(m, n) story end-to-end."""
    finals = {}

    def run():
        for workers in (8, 64, 512):
            est = CuMFSGD(k=16, workers=workers, lam=0.05, seed=0)
            hist = est.fit(bench_problem.train, epochs=3, test=bench_problem.test)
            finals[workers] = hist.final_test_rmse
        return finals

    benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nRMSE after 3 epochs by wave width: {finals}")
    assert finals[8] <= finals[512]
