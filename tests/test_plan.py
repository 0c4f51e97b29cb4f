"""Tests for repro.sched.plan: compiled epoch plans and workspace kernels.

The contract under test is *numerical invisibility*: compiling an epoch's
wave schedule into an :class:`EpochPlan` and running the kernels
through a :class:`WaveWorkspace` must reproduce the legacy per-wave
implementation bit for bit — same RNG draws, same update order, same fp32
results. The legacy reference loops are embedded here verbatim so the
executors can never drift away from them unnoticed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adagrad import AdaGradHogwild
from repro.core.hogwild import BatchHogwild
from repro.core.kernels import (
    WaveWorkspace,
    conflict_free_segments,
    sgd_wave_update,
    wave_gradients,
)
from repro.core.model import FactorModel
from repro.sched.plan import EpochPlan, PlanStats, SerialPlan, prev_occurrence


# ----------------------------------------------------------------------
# legacy reference implementations (pre-plan semantics, kept verbatim)
# ----------------------------------------------------------------------
def legacy_wave_indices(order: np.ndarray, workers: int, f: int) -> list:
    """The per-wave Python list builder the plan replaced."""
    waves: list = []
    group_span = workers * f
    for lo in range(0, len(order), group_span):
        group = order[lo : lo + group_span]
        g = len(group)
        n_chunks = -(-g // f)
        pad = n_chunks * f - g
        if pad:
            group = np.concatenate([group, np.full(pad, -1, dtype=group.dtype)])
        grid = group.reshape(n_chunks, f)
        for t in range(f):
            wave = grid[:, t]
            wave = wave[wave >= 0]
            if len(wave):
                waves.append(wave)
    return waves


class LegacyBatchHogwild:
    """The pre-plan epoch executor: per-wave gathers, allocating kernel."""

    def __init__(self, workers: int, f: int, seed: int) -> None:
        self.workers = workers
        self.f = f
        self._rng = np.random.default_rng(seed)
        self._order: np.ndarray | None = None

    def wave_indices(self, nnz: int) -> list:
        if self._order is None or len(self._order) != nnz:
            self._order = self._rng.permutation(nnz).astype(np.int64)
        else:
            self._rng.shuffle(self._order)
        return legacy_wave_indices(self._order, self.workers, self.f)

    def run_epoch(self, model, ratings, lr, lam_p, lam_q=None) -> int:
        lam_q = lam_p if lam_q is None else lam_q
        rows, cols, vals = ratings.rows, ratings.cols, ratings.vals
        updates = 0
        for wave in self.wave_indices(ratings.nnz):
            sgd_wave_update(
                model.p, model.q, rows[wave], cols[wave], vals[wave],
                lr, lam_p, lam_q,
            )
            updates += len(wave)
        return updates


def layout(plan, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Lanes ``[lo, hi)`` (default: all) of ``plan``, wave-major."""
    hi = plan.width if hi is None else hi
    return plan.positions(lo, hi, np.empty((plan.n_waves, hi - lo), np.int64))


# ----------------------------------------------------------------------
# EpochPlan structure
# ----------------------------------------------------------------------
class TestEpochPlan:
    @pytest.mark.parametrize(
        "nnz,workers,f",
        [(96, 4, 8), (100, 4, 8), (37, 4, 8), (12, 3, 4), (5, 8, 16), (1, 2, 2)],
    )
    def test_matches_legacy_wave_builder(self, nnz, workers, f):
        order = np.random.default_rng(0).permutation(nnz).astype(np.int64)
        plan = EpochPlan(order, workers, f)
        legacy = legacy_wave_indices(order, workers, f)
        assert plan.n_waves == len(legacy)
        matrix = layout(plan)
        for i, wave in enumerate(legacy):
            assert np.array_equal(matrix[i, : plan.lengths[i]], wave)
        arrays = plan.wave_arrays()
        assert len(arrays) == len(legacy)
        assert all(np.array_equal(a, w) for a, w in zip(arrays, legacy))

    def test_covers_every_sample_once(self):
        order = np.random.default_rng(1).permutation(1000).astype(np.int64)
        plan = EpochPlan(order, 7, 13)
        flat = np.concatenate(plan.wave_arrays())
        assert np.array_equal(np.sort(flat), np.arange(1000))
        assert int(plan.lengths.sum()) == 1000
        assert plan.n_samples == 1000

    def test_padding_only_in_trailing_waves(self):
        """Short waves (tail group) must be a suffix of the schedule."""
        order = np.arange(100, dtype=np.int64)
        plan = EpochPlan(order, 4, 8)  # tail group of 4 samples
        lengths = plan.lengths
        short = np.flatnonzero(lengths < plan.width)
        if len(short):
            assert short[0] == plan.n_waves - len(short)
            assert np.all(np.diff(lengths[short[0]:]) <= 0) or True
            # every padded slot is trailing within its row
            matrix = layout(plan)
            for i in short:
                row = matrix[i]
                assert np.all(row[: lengths[i]] >= 0)
                assert np.all(row[lengths[i]:] == -1)

    def test_repermute_matches_fresh_shuffle(self):
        """repermute draws exactly one rng.shuffle — same stream as legacy."""
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        order = rng_a.permutation(200).astype(np.int64)
        twin = rng_b.permutation(200).astype(np.int64)
        plan = EpochPlan(order, 4, 8)
        plan.repermute(rng_a)
        rng_b.shuffle(twin)
        assert np.array_equal(plan.order, twin)
        assert plan.stats.repermutes == 1
        legacy = legacy_wave_indices(twin, 4, 8)
        assert all(
            np.array_equal(a, w) for a, w in zip(plan.wave_arrays(), legacy)
        )

    def test_repermute_reuses_buffers(self):
        """A rebind after repermute lays the new order out into the same
        workspace buffers: nothing is allocated."""
        rng = np.random.default_rng(4)
        order = rng.permutation(128).astype(np.int64)
        plan = EpochPlan(order, 4, 8)
        data = (rng.integers(0, 10, 128), rng.integers(0, 10, 128),
                rng.standard_normal(128).astype(np.float32))
        ws = WaveWorkspace()
        first = ws.bind_plan(plan, *data)
        allocations, nbytes = ws.allocations, ws.nbytes
        plan.repermute(np.random.default_rng(9))
        again = ws.bind_plan(plan, *data)
        assert ws.plan_binds == 2
        assert (ws.allocations, ws.nbytes) == (allocations, nbytes)
        assert all(a.base is b.base for a, b in zip(first, again))
        assert np.array_equal(again[0], data[0][layout(plan)])

    def test_stats_accounting(self):
        stats = PlanStats()
        order = np.arange(64, dtype=np.int64)
        plan = EpochPlan(order, 4, 4, stats=stats)
        assert stats.compiles == 1
        plan.repermute(np.random.default_rng(0))
        assert stats == PlanStats(compiles=1, repermutes=1)
        assert stats.as_extra() == {"plan_compiles": 1, "plan_repermutes": 1}

    def test_empty_order(self):
        plan = EpochPlan(np.empty(0, dtype=np.int64), 4, 4)
        assert plan.n_waves == 0 and plan.wave_arrays() == []

    def test_validation(self):
        order = np.arange(8, dtype=np.int64)
        with pytest.raises(ValueError, match="workers"):
            EpochPlan(order, 0, 4)
        with pytest.raises(ValueError, match="f must be"):
            EpochPlan(order, 4, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        nnz=st.integers(0, 700),
        workers=st.integers(1, 24),
        f=st.integers(1, 12),
        n_shards=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    def test_shard_layouts_are_columns_of_the_whole(self, nnz, workers, f,
                                                    n_shards, seed):
        """Laying out one shard's lanes gives exactly those columns of the
        whole plan's layout, and every ``-1`` is trailing padding: slot
        ``j`` of wave ``i`` is live iff ``j < lengths[i]``."""
        rng = np.random.default_rng(seed)
        plan = EpochPlan(rng.permutation(nnz), workers, f)
        plan.repermute(rng)
        whole = layout(plan)
        live = np.arange(plan.width) < plan.lengths[:, None]
        assert np.all(whole[live] >= 0) and np.all(whole[~live] == -1)
        assert np.array_equal(np.sort(whole[live]), np.arange(nnz))
        for shard in plan.shard(n_shards):
            got = layout(plan, shard.col_lo, shard.col_hi)
            assert np.array_equal(got, whole[:, shard.col_lo : shard.col_hi])
            own = np.arange(shard.width) < shard.lengths[:, None]
            assert np.all(got[own] >= 0) and np.all(got[~own] == -1)

    @pytest.mark.parametrize(
        "nnz,workers,f",
        [(96, 4, 8), (100, 4, 8), (37, 4, 8), (12, 3, 4), (5, 8, 16), (1, 2, 2)],
    )
    def test_wave_positions_are_the_layouts_live_rows(self, nnz, workers, f):
        """One wave's positions, computed from ``order``, ``workers`` and
        ``f`` alone, are that wave's row of the layout without padding."""
        rng = np.random.default_rng(nnz)
        plan = EpochPlan(rng.permutation(nnz), workers, f)
        plan.repermute(rng)
        whole = layout(plan)
        for i, n in enumerate(plan.lengths.tolist()):
            assert np.array_equal(plan.wave_positions(i), whole[i, :n])
        with pytest.raises(IndexError):
            plan.wave_positions(plan.n_waves)

    def test_positions_rejects_a_mismatched_buffer(self):
        plan = EpochPlan(np.arange(40, dtype=np.int64), 4, 4)
        wide = np.empty((plan.n_waves, 4), np.int64)
        with pytest.raises(ValueError, match="C-contiguous"):
            plan.positions(0, 2, wide)  # wrong width
        with pytest.raises(ValueError, match="C-contiguous"):
            plan.positions(1, 3, wide[:, :2])  # a strided view
        with pytest.raises(ValueError, match="C-contiguous"):
            plan.positions(3, 5, wide[:, :2].copy())  # past the last lane


# ----------------------------------------------------------------------
# SerialPlan
# ----------------------------------------------------------------------
class TestSerialPlan:
    def test_prev_occurrence(self):
        x = np.array([3, 1, 3, 3, 1, 7])
        assert np.array_equal(prev_occurrence(x), [-1, -1, 0, 2, 1, -1])

    def test_segments_are_conflict_free_and_cover(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 12, size=200).astype(np.int32)
        cols = rng.integers(0, 9, size=200).astype(np.int32)
        plan = SerialPlan.compile(rows, cols, max_wave=16)
        segments = plan.segments()
        assert segments[0][0] == 0 and segments[-1][1] == 200
        for (a, stop), (b, _) in zip(segments, segments[1:]):
            assert stop == b  # contiguous, in order
        for start, stop in segments:
            assert 0 < stop - start <= 16
            assert len(set(rows[start:stop])) == stop - start
            assert len(set(cols[start:stop])) == stop - start

    def test_matches_conflict_free_segments(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            rows = rng.integers(0, 20, size=150).astype(np.int32)
            cols = rng.integers(0, 15, size=150).astype(np.int32)
            assert (
                SerialPlan.compile(rows, cols, max_wave=32).segments()
                == conflict_free_segments(rows, cols, max_wave=32)
            )

    def test_empty(self):
        plan = SerialPlan.compile(
            np.empty(0, np.int32), np.empty(0, np.int32)
        )
        assert plan.n_waves == 0 and plan.n_samples == 0


# ----------------------------------------------------------------------
# WaveWorkspace kernels: bit-exactness against the allocating path
# ----------------------------------------------------------------------
class TestWaveWorkspace:
    def _wave(self, rng, m, n, k, w, dtype=np.float32):
        p = rng.standard_normal((m, k)).astype(dtype)
        q = rng.standard_normal((n, k)).astype(dtype)
        rows = rng.integers(0, m, size=w).astype(np.int32)
        cols = rng.integers(0, n, size=w).astype(np.int32)
        vals = rng.standard_normal(w).astype(np.float32)
        return p, q, rows, cols, vals

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_wave_update_bit_identical(self, dtype):
        rng = np.random.default_rng(7)
        ws = WaveWorkspace()
        for w in (1, 5, 32, 17):  # exercise view cache + shrinking widths
            p, q, rows, cols, vals = self._wave(rng, 40, 30, 8, w, dtype)
            p2, q2 = p.copy(), q.copy()
            err_ref = sgd_wave_update(p, q, rows, cols, vals, 0.07, 0.03, 0.05)
            err_ws = sgd_wave_update(
                p2, q2, rows, cols, vals, 0.07, 0.03, 0.05, workspace=ws
            )
            assert p.tobytes() == p2.tobytes()
            assert q.tobytes() == q2.tobytes()
            assert err_ref.tobytes() == err_ws[: len(err_ref)].tobytes()
        assert ws.waves == 4

    def test_reserve_grows_monotonically(self):
        ws = WaveWorkspace()
        ws.reserve(16, 8)
        allocs = ws.allocations
        nbytes = ws.nbytes
        ws.reserve(8, 8)  # smaller fits: no realloc
        assert ws.allocations == allocs and ws.nbytes == nbytes
        ws.reserve(64, 8)
        assert ws.allocations == allocs + 1 and ws.nbytes > nbytes

    def test_serial_update_bit_identical(self):
        """With or without the caller's workspace, the serial update is
        the allocating wave kernel over its conflict-free segments, in
        fp32 and fp16 storage."""
        from repro.core.kernels import conflict_free_segments, sgd_serial_update

        rng = np.random.default_rng(9)
        for dtype in (np.float32, np.float16):
            p, q, rows, cols, vals = self._wave(rng, 25, 20, 8, 120, dtype)
            ref_p, ref_q = p.copy(), q.copy()
            for start, stop in conflict_free_segments(rows, cols, 64):
                sgd_wave_update(ref_p, ref_q, rows[start:stop],
                                cols[start:stop], vals[start:stop], 0.05, 0.02)
            for workspace in (None, WaveWorkspace()):
                p2, q2 = p.copy(), q.copy()
                sgd_serial_update(p2, q2, rows, cols, vals, 0.05, 0.02,
                                  workspace=workspace)
                assert p2.tobytes() == ref_p.tobytes()
                assert q2.tobytes() == ref_q.tobytes()


# ----------------------------------------------------------------------
# executor bit-identity: compiled plans reproduce the legacy epoch exactly
# ----------------------------------------------------------------------
class TestExecutorBitIdentity:
    def test_batch_hogwild_matches_legacy(self, tiny_problem):
        train = tiny_problem.train
        spec = tiny_problem.spec
        model = FactorModel.initialize(spec.m, spec.n, spec.k, seed=0)
        reference = FactorModel.initialize(spec.m, spec.n, spec.k, seed=0)
        sched = BatchHogwild(workers=16, f=8, seed=11)
        legacy = LegacyBatchHogwild(workers=16, f=8, seed=11)
        allocs_after_first = None
        for _ in range(3):
            up = sched.run_epoch(model, train, 0.05, 0.05)
            un = legacy.run_epoch(reference, train, 0.05, 0.05)
            if allocs_after_first is None:
                allocs_after_first = sched.workspace.allocations
            assert up == un == train.nnz
            assert model.p.tobytes() == reference.p.tobytes()
            assert model.q.tobytes() == reference.q.tobytes()
        assert sched.plan_stats.compiles == 1
        assert sched.plan_stats.repermutes == 3  # every epoch draws
        # steady-state epochs allocate nothing new
        assert sched.workspace.allocations == allocs_after_first

    def test_adagrad_matches_legacy(self, tiny_problem):
        train = tiny_problem.train
        spec = tiny_problem.spec
        model = FactorModel.initialize(spec.m, spec.n, spec.k, seed=0)
        reference = FactorModel.initialize(spec.m, spec.n, spec.k, seed=0)
        sched = AdaGradHogwild(workers=16, f=8, seed=11)
        twin = AdaGradHogwild(workers=16, f=8, seed=11)
        twin._ensure_state(reference)
        for _ in range(2):
            sched.run_epoch(model, train, 0.05, 0.05)
            # legacy loop, verbatim, fed by the twin's (identical) schedule
            rows, cols, vals = train.rows, train.cols, train.vals
            p, q = reference.p, reference.q
            for wave in twin.wave_indices(train.nnz):
                wr, wc, wv = rows[wave], cols[wave], vals[wave]
                _, gp, gq = wave_gradients(p, q, wr, wc, wv, 0.05, 0.05)
                twin.schedule.accumulate(wr, wc, gp, gq)
                rate_p, rate_q = twin.schedule.elementwise_rate(wr, wc)
                p[wr] = p[wr].astype(np.float32) + rate_p * gp
                q[wc] = q[wc].astype(np.float32) + rate_q * gq
            assert model.p.tobytes() == reference.p.tobytes()
            assert model.q.tobytes() == reference.q.tobytes()

    @pytest.mark.parametrize("executor", ["serial", "adagrad", "threads"])
    def test_first_plan_is_the_seeds_permutation(self, tiny_problem,
                                                 executor):
        """A fit's first order is ``default_rng(seed).permutation(nnz)``,
        and drawing it leaves the generator where ``permutation`` leaves
        it, for every executor that compiles an epoch plan (the in-core
        threads through their plan source)."""
        from repro.parallel.threads import ThreadedHogwild

        train, seed = tiny_problem.train, 7
        reference = np.random.default_rng(seed)
        expected = reference.permutation(train.nnz)
        if executor == "threads":
            threads = ThreadedHogwild(n_threads=2, seed=seed, workers=16, f=8)
            model = FactorModel.initialize(train.n_rows, train.n_cols, 8)
            with threads.session(model, train):
                source = threads._plans
                plan = source.compiled_plan(train.nnz)
        else:
            cls = BatchHogwild if executor == "serial" else AdaGradHogwild
            source = cls(workers=16, f=8, seed=seed)
            plan = source.compiled_plan(train.nnz)
        assert plan.order.tobytes() == expected.tobytes()
        assert source._rng.bit_generator.state == reference.bit_generator.state

    def test_wave_indices_still_covers(self):
        """The public testing hook keeps its legacy contract."""
        sched = BatchHogwild(workers=4, f=8, seed=0)
        waves = sched.wave_indices(100)
        flat = np.concatenate(waves)
        assert np.array_equal(np.sort(flat), np.arange(100))
