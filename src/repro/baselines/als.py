"""cuMF_ALS reimplementation: exact alternating least squares (§7.4).

ALS alternates two exact half-steps: fixing Q, every ``p_u`` solves the
ridge normal equations over the user's observed columns; then symmetrically
for every ``q_v``. Each epoch costs O(N·k²) memory and O(N·k² + (m+n)·k³)
compute — the paper's complexity argument for why ALS epochs run slower
than SGD epochs even though ALS needs fewer of them.

The normal-equation assembly is fully vectorized (scatter-added Gram
matrices, then one batched ``np.linalg.solve``), so paper-relevant problem
sizes train in seconds.

:func:`als_epoch_seconds` is the matching GPU cost model for cuMF_ALS on 1
or 4 GPUs (Fig. 12).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

from repro.core.lr_schedule import ConstantSchedule
from repro.core.model import FactorModel
from repro.core.trainer import EpochSolver
from repro.data.container import RatingMatrix
from repro.data.synthetic import DatasetSpec
from repro.gpusim.specs import GPUSpec
from repro.obs.hooks import TrainerHooks

__all__ = ["ALSSolver", "als_epoch_seconds", "als_epoch_flops"]


class ALSSolver(EpochSolver):
    """Exact ALS for the Eq. 2 objective.

    Regularization uses the weighted-λ convention (λ scaled by each entity's
    rating count), matching cuMF_ALS and the Zhou et al. formulation.
    """

    scheme = "als"
    #: ALS has no learning rate; the history logs 0.0
    schedule = ConstantSchedule(0.0)

    def __init__(
        self,
        k: int = 32,
        lam: float = 0.05,
        seed: int = 0,
        weighted_reg: bool = True,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if lam < 0:
            raise ValueError(f"lam must be non-negative, got {lam}")
        self.k = k
        self.lam = lam
        self.seed = seed
        self.weighted_reg = weighted_reg

    # ------------------------------------------------------------------
    #: samples per scatter-accumulation chunk; bounds the (chunk, k²) outer-
    #: product intermediate to a few hundred MB at k=128
    GRAM_CHUNK = 200_000

    def _indicators(self, own_idx: np.ndarray, n_rows: int) -> list[sp.csr_matrix]:
        """Chunked row-indicator CSR matrices.

        ``S[u, t] = 1`` iff chunk-sample ``t`` belongs to row ``u``; the
        grouped Gram/rhs sums then become sparse-dense matmuls, which beat
        ``np.add.at`` scatter by ~3x and dominate the ALS epoch cost.
        """
        chunks: list[sp.csr_matrix] = []
        for lo in range(0, len(own_idx), self.GRAM_CHUNK):
            idx = own_idx[lo : lo + self.GRAM_CHUNK]
            chunks.append(
                sp.csr_matrix(
                    (
                        np.ones(len(idx), dtype=np.float32),
                        (idx, np.arange(len(idx))),
                    ),
                    shape=(n_rows, len(idx)),
                )
            )
        return chunks

    def _solve_side(
        self,
        target: np.ndarray,
        fixed: np.ndarray,
        own_idx: np.ndarray,
        other_idx: np.ndarray,
        vals: np.ndarray,
        indicators: list[sp.csr_matrix],
    ) -> None:
        """Solve the ridge normal equations for every row of ``target``.

        ``own_idx[t]`` is the target-row index of sample t, ``other_idx[t]``
        the fixed-side row; ``indicators`` are ``own_idx``'s
        :meth:`_indicators`. Rows with no samples keep their current value.
        """
        n_rows, k = target.shape
        fv = fixed[other_idx].astype(np.float32)
        weighted = vals.astype(np.float32)[:, None] * fv
        gram = np.zeros((n_rows, k * k), dtype=np.float32)
        rhs = np.zeros((n_rows, k), dtype=np.float32)
        for chunk, indicator in zip(range(0, len(own_idx), self.GRAM_CHUNK), indicators):
            sl = slice(chunk, chunk + indicator.shape[1])
            fc = fv[sl]
            outer = (fc[:, :, None] * fc[:, None, :]).reshape(len(fc), k * k)
            gram += indicator @ outer
            rhs += indicator @ weighted[sl]
        gram = gram.reshape(n_rows, k, k)
        counts = np.bincount(own_idx, minlength=n_rows).astype(np.float32)
        reg = self.lam * (counts if self.weighted_reg else np.ones_like(counts))
        reg = np.maximum(reg, self.lam)  # keep systems well-posed for empty rows
        gram += reg[:, None, None] * np.eye(k, dtype=np.float32)[None]
        solved = np.linalg.solve(gram, rhs[..., None])[..., 0]
        touched = counts > 0
        target[touched] = solved[touched]

    # ------------------------------------------------------------------
    @contextmanager
    def session(self, model: FactorModel, train: RatingMatrix):
        """Per-fit state: both sides' row indicators, built once."""
        self._row_indicators = self._indicators(train.rows, train.n_rows)
        self._col_indicators = self._indicators(train.cols, train.n_cols)
        yield model

    def run_epoch(self, model: FactorModel, ratings: RatingMatrix, lr: float,
                  lam_p: float, lam_q: float | None = None,
                  hooks: TrainerHooks | None = None) -> int:
        """Two exact half-steps: every ``p_u`` with Q fixed, then every
        ``q_v``; updates ``model`` in place."""
        p, q = model.p, model.q
        self._solve_side(p, q, ratings.rows, ratings.cols, ratings.vals,
                         self._row_indicators)
        self._solve_side(q, p, ratings.cols, ratings.rows, ratings.vals,
                         self._col_indicators)
        return ratings.nnz


# ----------------------------------------------------------------------
# performance model
# ----------------------------------------------------------------------
#: Fraction of peak flops the batched-solve ALS kernels sustain; cuMF_ALS
#: reports roughly half of peak on its fused kernels.
ALS_FLOPS_EFFICIENCY = 0.5


def als_epoch_flops(dataset: DatasetSpec, k: int | None = None) -> float:
    """The §7.4 complexity: ``O(N·k² + (m+n)·k³)`` flops per epoch."""
    k = k or dataset.k
    return 2.0 * dataset.n_train * k * k + (dataset.m + dataset.n) * k**3 / 3.0


def als_epoch_seconds(
    spec: GPUSpec,
    dataset: DatasetSpec,
    n_gpus: int = 1,
    k: int | None = None,
) -> float:
    """Modelled seconds per ALS epoch on ``n_gpus`` GPUs.

    ALS is compute-bound (its intensity is ~k/2 flops/byte, far above the
    machine balance), so the epoch time is flops over sustained flop rate;
    multi-GPU cuMF_ALS scales near-linearly on the solve phase but pays a
    per-epoch model broadcast on the link.
    """
    if n_gpus <= 0:
        raise ValueError(f"n_gpus must be positive, got {n_gpus}")
    k = k or dataset.k
    flops = als_epoch_flops(dataset, k)
    rate = spec.peak_gflops * 1e9 * ALS_FLOPS_EFFICIENCY * n_gpus
    compute = flops / rate
    if n_gpus == 1:
        return compute
    model_bytes = (dataset.m + dataset.n) * k * 4
    broadcast = spec.link.transfer_seconds(model_bytes)
    return compute + broadcast
