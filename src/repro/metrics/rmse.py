"""Root-mean-square error — the paper's convergence indicator.

Test RMSE over the held-out set (Figs. 7b, 9, 12, 13, 14, 16) and the full
regularized objective of Eq. 2.
"""

from __future__ import annotations

import numpy as np

from repro.data.container import RatingMatrix

__all__ = ["predict", "rmse", "rmse_objective"]

#: Samples per chunk of :func:`rmse` and :func:`rmse_objective`; :func:`rmse`
#: holds one fp32 residual per sample of a chunk.
_EVAL_CHUNK = 1 << 20
#: Rows :func:`predict` gathers (and widens to fp32) per block: two
#: ``(block, k)`` fp32 gathers, 256 KB at k = 32, bound its working memory.
_PREDICT_BLOCK = 1 << 10


def predict(
    p: np.ndarray, q: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Predicted ratings ``p_u . q_v`` for each (u, v) pair, in float32.

    Gathers ``p_u`` and ``q_v`` a block of pairs at a time, so it never
    holds a gathered ``(len(rows), k)`` array or, under fp16 storage, an
    fp32 copy of the model. Each row is widened to fp32 exactly, so every
    prediction equals the one a whole-array gather computes.
    """
    p, q = np.asarray(p), np.asarray(q)
    out = np.empty(len(rows), np.float32)
    for lo in range(0, len(rows), _PREDICT_BLOCK):
        hi = lo + _PREDICT_BLOCK
        np.einsum("ij,ij->i",
                  p.take(rows[lo:hi], axis=0).astype(np.float32, copy=False),
                  q.take(cols[lo:hi], axis=0).astype(np.float32, copy=False),
                  out=out[lo:hi])
    return out


def rmse(p: np.ndarray, q: np.ndarray, ratings: RatingMatrix) -> float:
    """Test RMSE of the model (P, Q) against the observed samples.

    Evaluates in chunks of ``_EVAL_CHUNK`` samples, each predicted in
    blocks of ``_PREDICT_BLOCK``, so working memory is one residual per
    sample of a chunk (4 B) plus one block's gathers, whatever the test
    set's size: paper-scale test sets (tens of millions of samples) never
    materialize an ``N x k`` intermediate. An fp16 model is widened to
    fp32 once per call (exactly, so every prediction is unchanged): a
    test set gathers each factor row many times, and widening the model
    costs less than widening every gathered row.
    """
    if ratings.nnz == 0:
        raise ValueError("cannot compute RMSE of an empty rating set")
    p = np.asarray(p, dtype=np.float32)
    q = np.asarray(q, dtype=np.float32)
    sse = 0.0
    for lo in range(0, ratings.nnz, _EVAL_CHUNK):
        hi = min(lo + _EVAL_CHUNK, ratings.nnz)
        diff = predict(p, q, ratings.rows[lo:hi], ratings.cols[lo:hi])
        np.subtract(ratings.vals[lo:hi], diff, out=diff)
        sse += float(np.dot(diff, diff))
    return float(np.sqrt(sse / ratings.nnz))


def rmse_objective(
    p: np.ndarray,
    q: np.ndarray,
    ratings: RatingMatrix,
    lam_p: float,
    lam_q: float | None = None,
) -> float:
    """The full regularized objective of Eq. 2 (sum, not mean).

    ``sum (r_uv - p_u.q_v)^2 + λ_p Σ||p_u||² + λ_q Σ||q_v||²`` where the
    regularization is counted once per *observed sample*, matching the
    per-sample loss of Eq. 3 that SGD actually descends.
    """
    lam_q = lam_p if lam_q is None else lam_q
    p = np.asarray(p, dtype=np.float32)
    q = np.asarray(q, dtype=np.float32)
    sse = 0.0
    reg = 0.0
    for lo in range(0, ratings.nnz, _EVAL_CHUNK):
        hi = min(lo + _EVAL_CHUNK, ratings.nnz)
        r, c = ratings.rows[lo:hi], ratings.cols[lo:hi]
        pred = predict(p, q, r, c)
        diff = ratings.vals[lo:hi] - pred
        sse += float(np.dot(diff, diff))
        reg += lam_p * float(np.einsum("ij,ij->", p[r], p[r]))
        reg += lam_q * float(np.einsum("ij,ij->", q[c], q[c]))
    return sse + reg
