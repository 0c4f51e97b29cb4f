"""Factor-model container: the P and Q matrices and their storage precision.

Initialization follows Algorithm 1, line 3: entries drawn uniformly from
``[0, sqrt(1/(k * scale_factor)))``, so that the expected initial prediction
magnitude is independent of ``k``.

Half-precision storage (§4) keeps P and Q in ``float16``; all kernels compute
in ``float32``. The paper notes that after parameter scaling fp16 "is precise
enough to store the feature matrices and does not incur accuracy loss" while
halving the feature-matrix memory traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.rmse import predict

__all__ = ["FactorModel"]


@dataclass
class FactorModel:
    """Dense feature matrices ``P (m x k)`` and ``Q (n x k)``.

    Q is stored row-major by *item* (the transpose of the paper's ``k x n``
    notation) so both matrices have the same coalesced-row access pattern.
    """

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        if self.p.ndim != 2 or self.q.ndim != 2:
            raise ValueError("P and Q must be 2-D")
        if self.p.shape[1] != self.q.shape[1]:
            raise ValueError(
                f"feature dimensions disagree: P has k={self.p.shape[1]}, "
                f"Q has k={self.q.shape[1]}"
            )
        if self.p.dtype != self.q.dtype:
            raise ValueError("P and Q must share a storage dtype")

    # ------------------------------------------------------------------
    @classmethod
    def initialize(
        cls,
        m: int,
        n: int,
        k: int,
        seed: int = 0,
        scale_factor: float = 1.0,
        half_precision: bool = False,
    ) -> "FactorModel":
        """Algorithm 1 line 3: ``P, Q ← random(0, sqrt(1/(k·scale_factor)))``."""
        if min(m, n, k) <= 0:
            raise ValueError(f"m, n, k must be positive, got ({m}, {n}, {k})")
        if scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        rng = np.random.default_rng(seed)
        hi = np.sqrt(1.0 / (k * scale_factor))
        dtype = np.float16 if half_precision else np.float32
        p = rng.uniform(0.0, hi, size=(m, k)).astype(dtype)
        q = rng.uniform(0.0, hi, size=(n, k)).astype(dtype)
        return cls(p=p, q=q)

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        return self.p.shape[0]

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def k(self) -> int:
        return self.p.shape[1]

    @property
    def half_precision(self) -> bool:
        return self.p.dtype == np.float16

    @property
    def nbytes(self) -> int:
        """Total feature storage, the quantity §4's half-precision halves."""
        return self.p.nbytes + self.q.nbytes

    # ------------------------------------------------------------------
    def as_float32(self) -> tuple[np.ndarray, np.ndarray]:
        """fp32 views/copies for evaluation."""
        p = self.p if self.p.dtype == np.float32 else self.p.astype(np.float32)
        q = self.q if self.q.dtype == np.float32 else self.q.astype(np.float32)
        return p, q

    def to_half(self) -> "FactorModel":
        """Convert storage to fp16 (no-op if already half precision)."""
        if self.half_precision:
            return self
        return FactorModel(self.p.astype(np.float16), self.q.astype(np.float16))

    def to_single(self) -> "FactorModel":
        """Convert storage to fp32 (no-op if already single precision)."""
        if not self.half_precision:
            return self
        return FactorModel(self.p.astype(np.float32), self.q.astype(np.float32))

    def copy(self) -> "FactorModel":
        return FactorModel(self.p.copy(), self.q.copy())

    def predict(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Predicted ratings for (u, v) index arrays, computed in fp32
        from the stored factors (:func:`repro.metrics.rmse.predict`)."""
        return predict(self.p, self.q, rows, cols)
