"""Tests for repro.metrics (rmse, flops, throughput)."""

import importlib

import numpy as np
import pytest

from repro.data.container import RatingMatrix
from repro.metrics.flops import (
    bytes_per_update,
    flops_byte_ratio,
    flops_per_update,
)
from repro.metrics.rmse import predict, rmse, rmse_objective
from repro.metrics.throughput import (
    ThroughputRecord,
    effective_bandwidth,
    updates_per_second,
)

# the module, not the `rmse` function that `repro.metrics` exports under
# the same name
rmse_module = importlib.import_module("repro.metrics.rmse")


def _one_gather_predict(p, q, rows, cols):
    """The reference: widen the whole model, gather every pair's rows at
    once, one ``einsum``."""
    pu = np.asarray(p, dtype=np.float32)[rows]
    qv = np.asarray(q, dtype=np.float32)[cols]
    return np.einsum("ij,ij->i", pu, qv)


def _one_gather_rmse(p, q, ratings, chunk):
    """The reference RMSE: ``rmse``'s chunked sum over whole-chunk gathers."""
    sse = 0.0
    for lo in range(0, ratings.nnz, chunk):
        hi = min(lo + chunk, ratings.nnz)
        diff = ratings.vals[lo:hi] - _one_gather_predict(
            p, q, ratings.rows[lo:hi], ratings.cols[lo:hi])
        sse += float(np.dot(diff, diff))
    return float(np.sqrt(sse / ratings.nnz))


class TestRMSE:
    def test_perfect_model_zero_rmse(self, rng):
        p = rng.normal(size=(10, 4)).astype(np.float32)
        q = rng.normal(size=(8, 4)).astype(np.float32)
        rows = np.array([0, 3, 7], dtype=np.int32)
        cols = np.array([1, 2, 5], dtype=np.int32)
        vals = np.einsum("ij,ij->i", p[rows], q[cols])
        ratings = RatingMatrix(rows, cols, vals, 10, 8)
        assert rmse(p, q, ratings) == pytest.approx(0.0, abs=1e-6)

    def test_known_value(self):
        p = np.ones((2, 2), dtype=np.float32)
        q = np.ones((2, 2), dtype=np.float32)
        # prediction is always 2.0; ratings 3.0 and 1.0 -> errors 1, -1
        ratings = RatingMatrix(
            np.array([0, 1]), np.array([0, 1]), np.array([3.0, 1.0]), 2, 2
        )
        assert rmse(p, q, ratings) == pytest.approx(1.0)

    def test_empty_rejected(self):
        empty = RatingMatrix(np.array([]), np.array([]), np.array([]), 2, 2)
        with pytest.raises(ValueError, match="empty"):
            rmse(np.ones((2, 2)), np.ones((2, 2)), empty)

    def test_predict_matches_manual(self, rng):
        p = rng.normal(size=(5, 3)).astype(np.float32)
        q = rng.normal(size=(4, 3)).astype(np.float32)
        got = predict(p, q, np.array([2, 0]), np.array([3, 1]))
        assert got[0] == pytest.approx(float(p[2] @ q[3]), rel=1e-6)
        assert got[1] == pytest.approx(float(p[0] @ q[1]), rel=1e-6)

    def test_chunked_equals_direct(self, rng, monkeypatch):
        """``predict`` gathers a block of rows at a time and ``rmse`` also
        chunks the set: both equal one whole gather per chunk plus
        ``einsum``, bit for bit, in fp32 and fp16 storage, for a set
        under one block, one spanning several blocks, and one crossing
        ``_EVAL_CHUNK`` (made small here) off a block boundary."""
        block = rmse_module._PREDICT_BLOCK
        default_chunk = rmse_module._EVAL_CHUNK
        cases = {"under one block": (block // 3, default_chunk),
                 "several blocks": (3 * block + 7, default_chunk),
                 "several chunks": (5 * block + 11, 2 * block + 37)}
        m, n, k = 300, 200, 13
        for dtype in (np.float32, np.float16):
            p = rng.normal(size=(m, k)).astype(dtype)
            q = rng.normal(size=(n, k)).astype(dtype)
            for case, (nnz, chunk) in cases.items():
                monkeypatch.setattr(rmse_module, "_EVAL_CHUNK", chunk)
                ratings = RatingMatrix(rng.integers(0, m, nnz),
                                       rng.integers(0, n, nnz),
                                       rng.normal(size=nnz), m, n)
                got = predict(p, q, ratings.rows, ratings.cols)
                want = _one_gather_predict(p, q, ratings.rows, ratings.cols)
                assert got.dtype == want.dtype == np.float32, case
                assert got.tobytes() == want.tobytes(), case
                assert rmse(p, q, ratings) == _one_gather_rmse(
                    p, q, ratings, chunk), case

    def test_objective_decreases_with_better_fit(self, tiny_problem):
        bad_p = np.zeros_like(tiny_problem.p_true)
        bad_q = np.zeros_like(tiny_problem.q_true)
        good = rmse_objective(
            tiny_problem.p_true, tiny_problem.q_true, tiny_problem.train, 0.0
        )
        bad = rmse_objective(bad_p, bad_q, tiny_problem.train, 0.0)
        assert good < bad

    def test_objective_regularization_adds(self, tiny_problem):
        base = rmse_objective(
            tiny_problem.p_true, tiny_problem.q_true, tiny_problem.train, 0.0
        )
        reg = rmse_objective(
            tiny_problem.p_true, tiny_problem.q_true, tiny_problem.train, 0.1
        )
        assert reg > base


class TestFlops:
    def test_eq5_paper_value(self):
        """k=128, 12-byte samples, fp32: the paper computes 0.43 ops/byte."""
        assert flops_byte_ratio(128) == pytest.approx(0.43, abs=0.01)

    def test_flops_structure(self):
        # 6k plus the log-tree reduction sum k/2 + k/4 + ... + 1 = k - 1
        assert flops_per_update(128) == 6 * 128 + 127
        assert flops_per_update(64) == 6 * 64 + 63
        assert flops_per_update(1) == 6

    def test_bytes_structure(self):
        assert bytes_per_update(128) == 12 + 4 * 128 * 4
        assert bytes_per_update(128, feature_bytes=2) == 12 + 4 * 128 * 2

    def test_half_precision_nearly_halves_bytes(self):
        full = bytes_per_update(128)
        half = bytes_per_update(128, feature_bytes=2)
        assert 0.49 < half / full < 0.52

    @pytest.mark.parametrize("k", [0, -3])
    def test_invalid_k(self, k):
        with pytest.raises(ValueError):
            flops_per_update(k)
        with pytest.raises(ValueError):
            bytes_per_update(k)

    def test_intensity_roughly_constant_in_k(self):
        # both numerator and denominator are ~linear in k
        assert flops_byte_ratio(32) == pytest.approx(flops_byte_ratio(256), rel=0.15)


class TestThroughput:
    def test_eq7(self):
        assert updates_per_second(10, 1_000_000, 2.0) == 5_000_000

    def test_invalid_elapsed(self):
        with pytest.raises(ValueError):
            updates_per_second(1, 100, 0.0)

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            updates_per_second(-1, 100, 1.0)

    def test_effective_bandwidth(self):
        # 1M updates/s at k=128 fp32 = 2060 MB/s
        assert effective_bandwidth(1e6, 128) == pytest.approx(2.060e9)

    def test_record_properties(self):
        rec = ThroughputRecord("cuMF", "netflix", 768, 267e6, k=128, feature_bytes=2)
        assert rec.musec == pytest.approx(267.0)
        assert rec.bandwidth_gbs == pytest.approx(267e6 * 1036 / 1e9)
