#!/usr/bin/env python
"""Scaling study: schedulers, GPU generations, and real threads.

Walks through the paper's performance story with the model substrate:

1. the roofline diagnosis (Eq. 5) — why MF-SGD is memory-bound;
2. scheduler scaling on Maxwell (Fig. 5b / 7a): global table vs wavefront
   vs batch-Hogwild!;
3. Maxwell vs Pascal at full occupancy (Fig. 11);
4. the host engine on real OS threads (genuine Hogwild! races).

Run:  python examples/scaling_study.py
"""

import time

from repro.core.trainer import CuMFSGD
from repro.data.synthetic import PAPER_DATASETS, DatasetSpec, make_synthetic
from repro.gpusim.roofline import roofline_point
from repro.gpusim.simulator import cumf_throughput, libmf_cpu_throughput
from repro.gpusim.specs import MAXWELL_TITAN_X, PASCAL_P100, XEON_E5_2670_DUAL

NETFLIX = PAPER_DATASETS["netflix"]


def section(title: str) -> None:
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main() -> None:
    section("1. roofline: why SGD-MF wants bandwidth, not flops")
    for device in (XEON_E5_2670_DUAL, MAXWELL_TITAN_X, PASCAL_P100):
        pt = roofline_point(device, k=128, feature_bytes=2)
        print(f"{pt.device:22s} intensity {pt.intensity:4.2f} flops/B  "
              f"bw-bound {pt.bandwidth_bound_updates_per_sec / 1e6:6.0f} M upd/s  "
              f"(uses {pt.efficiency:.1%} of peak flops)")

    section("2. scheduler scaling on Maxwell (Netflix, fp32)")
    print(f"{'workers':>8s} {'LIBMF-GPU':>10s} {'wavefront':>10s} {'hogwild':>10s}")
    for w in (64, 128, 240, 480, 768):
        row = [
            cumf_throughput(MAXWELL_TITAN_X, NETFLIX, workers=w, scheme=s,
                            half_precision=False).mupdates
            for s in ("libmf_gpu", "wavefront", "batch_hogwild")
        ]
        print(f"{w:8d} {row[0]:10.1f} {row[1]:10.1f} {row[2]:10.1f}")
    cpu = libmf_cpu_throughput(XEON_E5_2670_DUAL, NETFLIX)
    print(f"(reference: LIBMF on 40 CPU threads = {cpu.mupdates:.1f} M upd/s)")

    section("3. Maxwell vs Pascal at full occupancy (fp16 features)")
    for spec in (MAXWELL_TITAN_X, PASCAL_P100):
        pt = cumf_throughput(spec, NETFLIX)
        print(f"{spec.name:16s} {pt.workers:5d} workers  "
              f"{pt.mupdates:6.0f} M upd/s  "
              f"{pt.effective_bandwidth_gbs:5.0f} GB/s effective")

    section("4. the host engine on real OS threads")
    problem = make_synthetic(
        DatasetSpec(name="threads", m=2_000, n=1_000, k=16,
                    n_train=150_000, n_test=8_000),
        seed=0,
    )
    for n_threads in (1, 2, 4):
        est = CuMFSGD(k=16, n_threads=n_threads, lam=0.05, seed=0)
        start = time.perf_counter()
        hist = est.fit(problem.train, epochs=5, test=problem.test)
        elapsed = time.perf_counter() - start
        rate = hist.total_updates / elapsed / 1e6
        print(f"{n_threads} thread(s): {elapsed:5.2f}s  {rate:5.2f} M upd/s  "
              f"final RMSE {hist.final_test_rmse:.4f}")


if __name__ == "__main__":
    main()
