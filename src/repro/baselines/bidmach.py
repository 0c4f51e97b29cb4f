"""BIDMach-style baseline: mini-batch SGD with ADAGRAD on the GPU.

BIDMach (Canny & Zhao) drives MF with *mini-batch* gradient steps — a batch
of samples is gathered, per-row/column gradients are **accumulated** (not
raced), and an ADAGRAD step is applied. Model parallelism comes from dense
batch algebra, which is why its update throughput is an order of magnitude
below cuMF_SGD's (Table 5: ~25-32M vs 257-710M updates/s): every batch pays
kernel-launch and reduction overheads that the lightweight one-block-per-
update kernel of cuMF_SGD avoids.

Numeric path: faithful mini-batch ADAGRAD (gradient accumulation via
``np.add.at``, element-wise adaptive rates). Performance path:
:func:`bidmach_throughput`, a batch-overhead cost model calibrated to
Table 5.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.lr_schedule import ConstantSchedule
from repro.core.model import FactorModel
from repro.core.trainer import EpochSolver
from repro.data.container import RatingMatrix
from repro.data.synthetic import DatasetSpec
from repro.gpusim.specs import GPUSpec
from repro.metrics.flops import bytes_per_update
from repro.obs.hooks import TrainerHooks

__all__ = ["BIDMachSGD", "bidmach_throughput"]

#: ADAGRAD's denominator floor
ADAGRAD_EPS = 1e-6


class BIDMachSGD(EpochSolver):
    """Mini-batch ADAGRAD matrix factorization."""

    scheme = "bidmach"

    def __init__(
        self,
        k: int = 32,
        batch: int = 4096,
        lam: float = 0.05,
        base_rate: float = 0.2,
        seed: int = 0,
    ) -> None:
        if k <= 0 or batch <= 0:
            raise ValueError("k and batch must be positive")
        if base_rate <= 0:
            raise ValueError("base_rate must be positive")
        self.k = k
        self.batch = batch
        self.lam = lam
        self.base_rate = base_rate
        #: ADAGRAD adapts the rate per element; the history logs the base
        self.schedule = ConstantSchedule(base_rate)
        self.seed = seed
        self._accum_p: np.ndarray | None = None
        self._accum_q: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _minibatch_step(
        self,
        model: FactorModel,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ) -> None:
        """One accumulated ADAGRAD step on a batch."""
        p, q = model.p, model.q
        pu = p[rows].astype(np.float32)
        qv = q[cols].astype(np.float32)
        err = vals.astype(np.float32) - np.einsum("ij,ij->i", pu, qv)
        gp = err[:, None] * qv - self.lam * pu
        gq = err[:, None] * pu - self.lam * qv
        # accumulate per-row gradients (mini-batch semantics: sum, no races)
        grad_p = np.zeros_like(p, dtype=np.float32)
        grad_q = np.zeros_like(q, dtype=np.float32)
        np.add.at(grad_p, rows, gp)
        np.add.at(grad_q, cols, gq)
        counts_p = np.bincount(rows, minlength=p.shape[0]).astype(np.float32)
        counts_q = np.bincount(cols, minlength=q.shape[0]).astype(np.float32)
        np.maximum(counts_p, 1.0, out=counts_p)
        np.maximum(counts_q, 1.0, out=counts_q)
        grad_p /= counts_p[:, None]
        grad_q /= counts_q[:, None]
        assert self._accum_p is not None and self._accum_q is not None
        self._accum_p += grad_p**2
        self._accum_q += grad_q**2
        step_p = self.base_rate / np.sqrt(self._accum_p + ADAGRAD_EPS)
        step_q = self.base_rate / np.sqrt(self._accum_q + ADAGRAD_EPS)
        p += (step_p * grad_p).astype(p.dtype, copy=False)
        q += (step_q * grad_q).astype(q.dtype, copy=False)

    # ------------------------------------------------------------------
    @contextmanager
    def session(self, model: FactorModel, train: RatingMatrix):
        """Per-fit state: the batch-order rng and both ADAGRAD accumulators."""
        self._rng = np.random.default_rng(self.seed)
        self._accum_p = np.zeros_like(model.p, dtype=np.float32)
        self._accum_q = np.zeros_like(model.q, dtype=np.float32)
        yield model

    def run_epoch(self, model: FactorModel, ratings: RatingMatrix, lr: float,
                  lam_p: float, lam_q: float | None = None,
                  hooks: TrainerHooks | None = None) -> int:
        """One shuffled pass of ``batch``-sample ADAGRAD steps."""
        order = self._rng.permutation(ratings.nnz)
        for lo in range(0, ratings.nnz, self.batch):
            sel = order[lo : lo + self.batch]
            self._minibatch_step(
                model, ratings.rows[sel], ratings.cols[sel], ratings.vals[sel]
            )
        return ratings.nnz


# ----------------------------------------------------------------------
# performance model
# ----------------------------------------------------------------------
#: Fixed cost per mini-batch on the GPU: kernel launches for gather, GEMM-ish
#: gradient, two scatter-reductions, the ADAGRAD elementwise pass, and a
#: host-side sync. ~250 us on both generations — which is why BIDMach gains
#: so little from Pascal's bandwidth in Table 5 (launch-bound, not
#: bandwidth-bound).
BATCH_OVERHEAD_US = 250.0


def bidmach_throughput(
    spec: GPUSpec,
    dataset: DatasetSpec,
    batch: int = 10_000,
    k: int | None = None,
) -> float:
    """Modelled updates/s of BIDMach's mini-batch MF on one GPU.

    Per-batch time = fixed launch/reduction overhead + memory time of the
    batch's traffic. BIDMach stores fp32 and materializes gradient and
    accumulator arrays, so each sample moves ~3x the feature traffic of the
    fused cuMF_SGD kernel. Calibrated against Table 5's 25-32M updates/s.
    """
    if batch <= 0:
        raise ValueError(f"batch must be positive, got {batch}")
    k = k or dataset.k
    traffic = 3.0 * bytes_per_update(k, feature_bytes=4)
    batch_seconds = BATCH_OVERHEAD_US * 1e-6 + batch * traffic / (
        spec.achieved_bw_gbs * 1e9
    )
    return batch / batch_seconds
