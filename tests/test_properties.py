"""Property-based tests (hypothesis) on the core invariants."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.kernels import conflict_free_segments, sgd_wave_update, single_update
from repro.core.lr_schedule import NomadSchedule
from repro.core.model import FactorModel
from repro.core.partition import GridPartition
from repro.data.container import RatingMatrix
from repro.data.shuffle import invert_permutation
from repro.gpusim.contention import ContentionModel, scheduler_throughput
from repro.gpusim.streams import StagedBlock, StreamPipeline
from repro.metrics.flops import bytes_per_update, flops_per_update
from repro.sched.conflict import (
    collision_fraction,
    count_conflicts,
    expected_collision_fraction,
    wave_is_conflict_free,
)
from repro.sched.column_lock import ColumnLockArray


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def coo_samples(draw, max_dim=40, max_n=120):
    """Random (rows, cols, m, n) with valid bounds."""
    m = draw(st.integers(2, max_dim))
    n = draw(st.integers(2, max_dim))
    size = draw(st.integers(1, max_n))
    rows = draw(arrays(np.int32, size, elements=st.integers(0, m - 1)))
    cols = draw(arrays(np.int32, size, elements=st.integers(0, n - 1)))
    return rows, cols, m, n


class TestConflictProperties:
    @given(coo_samples())
    @settings(max_examples=60)
    def test_collision_fraction_matches_serial_count(self, data):
        rows, cols, _, _ = data
        # frac is an exact ratio but (c/n)*n is not always c in floats
        assert round(collision_fraction(rows, cols) * len(rows)) == count_conflicts(
            rows, cols
        )

    @given(coo_samples())
    @settings(max_examples=60)
    def test_conflict_free_iff_zero_collisions(self, data):
        rows, cols, _, _ = data
        assert wave_is_conflict_free(rows, cols) == (count_conflicts(rows, cols) == 0)

    @given(st.integers(1, 200), st.integers(1, 500), st.integers(1, 500))
    @settings(max_examples=60)
    def test_expected_collision_in_unit_interval(self, s, m, n):
        e = expected_collision_fraction(s, m, n)
        assert 0.0 <= e < 1.0

    @given(st.integers(2, 100), st.integers(2, 300))
    @settings(max_examples=40)
    def test_expected_collision_monotone_in_workers(self, s, dim):
        assert expected_collision_fraction(s, dim, dim) >= expected_collision_fraction(
            s - 1, dim, dim
        )

    @given(st.lists(coo_samples(), min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_observe_wave_accumulates_exact_counts(self, waves):
        """The vectorized collision_fraction must agree with the serial
        count_conflicts on every wave: the fraction is the exact count
        over the wave's length, so per-wave counts accumulate exactly."""
        conflicts = expected_conflicts = 0
        for rows, cols, _, _ in waves:
            frac = collision_fraction(rows, cols)
            wave_conflicts = count_conflicts(rows, cols)
            assert frac == wave_conflicts / len(rows)
            conflicts += round(frac * len(rows))
            expected_conflicts += wave_conflicts
        assert conflicts == expected_conflicts


class TestSegmentProperties:
    @given(coo_samples(), st.integers(1, 32))
    @settings(max_examples=60)
    def test_segments_partition_and_are_conflict_free(self, data, max_wave):
        rows, cols, _, _ = data
        segs = conflict_free_segments(rows, cols, max_wave=max_wave)
        # partition property
        assert segs[0][0] == 0 and segs[-1][1] == len(rows)
        assert all(b1 == a2 for (_, b1), (a2, _) in zip(segs, segs[1:]))
        for a, b in segs:
            assert 1 <= b - a <= max_wave
            assert wave_is_conflict_free(rows[a:b], cols[a:b])

    @given(coo_samples())
    @settings(max_examples=30)
    def test_segmented_wave_equals_serial_loop(self, data):
        """Replaying conflict-free segments == strict per-sample execution."""
        rows, cols, m, n = data
        assume(len(rows) <= 40)
        vals = np.linspace(-1, 1, len(rows)).astype(np.float32)
        m1 = FactorModel.initialize(m, n, 4, seed=1)
        m2 = FactorModel.initialize(m, n, 4, seed=1)
        for a, b in conflict_free_segments(rows, cols, max_wave=8):
            sgd_wave_update(m1.p, m1.q, rows[a:b], cols[a:b], vals[a:b], 0.05, 0.01)
        for u, v, r in zip(rows, cols, vals):
            single_update(m2.p, m2.q, int(u), int(v), float(r), 0.05, 0.01)
        np.testing.assert_allclose(m1.p, m2.p, rtol=1e-5, atol=1e-6)


class TestPartitionProperties:
    @given(coo_samples(), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=50)
    def test_partition_covers_exactly_once(self, data, i, j):
        rows, cols, m, n = data
        assume(i <= m and j <= n)
        ratings = RatingMatrix(rows, cols, np.ones(len(rows), np.float32), m, n)
        part = GridPartition(ratings, i, j)
        assert part.coverage_check()
        assert part.block_nnz().sum() == ratings.nnz

    @given(coo_samples(), st.integers(2, 5))
    @settings(max_examples=40)
    def test_blocks_in_same_row_never_independent(self, data, g):
        rows, cols, m, n = data
        assume(g <= m and g <= n)
        ratings = RatingMatrix(rows, cols, np.ones(len(rows), np.float32), m, n)
        part = GridPartition(ratings, g, g)
        for j1 in range(g):
            for j2 in range(g):
                assert not part.independent((0, j1), (0, j2)) or j1 != j2


class TestKernelProperties:
    @given(st.floats(0.001, 0.2), st.floats(0.0, 0.2), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_single_update_decreases_pointwise_loss(self, lr, lam, seed):
        """One SGD step with a small rate decreases the Eq. 3 sample loss."""
        rng = np.random.default_rng(seed)
        p = rng.normal(0, 0.3, size=(1, 6)).astype(np.float32)
        q = rng.normal(0, 0.3, size=(1, 6)).astype(np.float32)
        r = float(rng.normal())

        def loss(pm, qm):
            err = r - float(pm[0] @ qm[0])
            return err**2 + lam * float(pm[0] @ pm[0]) + lam * float(qm[0] @ qm[0])

        before = loss(p, q)
        assume(before > 1e-6)
        single_update(p, q, 0, 0, r, lr, lam)
        assert loss(p, q) < before + 1e-9

    @given(st.integers(1, 512))
    @settings(max_examples=30)
    def test_flops_and_bytes_positive_and_increasing(self, k):
        assert flops_per_update(k) > 0
        assert bytes_per_update(k) > bytes_per_update(k, feature_bytes=2) > 0
        if k > 1:
            assert flops_per_update(k) > flops_per_update(k - 1)


class TestScheduleProperties:
    @given(st.floats(0.001, 1.0), st.floats(0.01, 2.0), st.integers(0, 500))
    @settings(max_examples=60)
    def test_eq9_bounded_and_decreasing(self, alpha, beta, t):
        s = NomadSchedule(alpha=alpha, beta=beta)
        assert 0 < s(t) <= alpha
        assert s(t + 1) < s(t)


class TestLockProperties:
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3)), max_size=40))
    @settings(max_examples=50)
    def test_lock_array_never_double_grants(self, ops):
        """Random acquire sequences: a column never has two owners; a grant
        to a held column always fails."""
        locks = ColumnLockArray(8)
        owner: dict[int, int] = {}
        for col, worker in ops:
            got = locks.try_acquire(col, worker)
            if col in owner:
                assert not got
            else:
                assert got
                owner[col] = worker
        for col, worker in owner.items():
            locks.release(col, worker)
        assert locks.all_free()


class TestPipelineProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0, 5), st.floats(0, 5), st.floats(0, 5)),
            min_size=1,
            max_size=12,
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=60)
    def test_makespan_bounds(self, durations, depth):
        """Makespan is at least every stream's busy time and at most the
        fully serialized sum."""
        blocks = [StagedBlock(a, b, c) for a, b, c in durations]
        res = StreamPipeline(depth=depth).simulate(blocks)
        assert res.makespan >= res.h2d_busy - 1e-9
        assert res.makespan >= res.compute_busy - 1e-9
        assert res.makespan >= res.d2h_busy - 1e-9
        serial = sum(a + b + c for a, b, c in durations)
        assert res.makespan <= serial + 1e-9

    @given(
        st.lists(
            st.tuples(st.floats(0, 5), st.floats(0, 5), st.floats(0, 5)),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=40)
    def test_deeper_pipeline_never_slower(self, durations):
        blocks = [StagedBlock(a, b, c) for a, b, c in durations]
        m1 = StreamPipeline(depth=1).simulate(blocks).makespan
        m2 = StreamPipeline(depth=3).simulate(blocks).makespan
        assert m2 <= m1 + 1e-9


class TestContentionProperties:
    @given(st.integers(1, 2000), st.floats(1e-7, 1e-3), st.floats(1, 1e4))
    @settings(max_examples=60)
    def test_throughput_monotone_in_workers_and_bounded(self, w, t_cs, upb):
        model = ContentionModel("m", t_critical=t_cs)
        r1 = scheduler_throughput(model, w, upb, 1e-6)
        r2 = scheduler_throughput(model, w + 1, upb, 1e-6)
        assert r2 >= r1 - 1e-9
        assert r1 <= upb / t_cs + 1e-6


class TestPermutationProperties:
    @given(st.integers(1, 200), st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_invert_permutation_involution(self, size, seed):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(size)
        inv = invert_permutation(perm)
        assert np.array_equal(invert_permutation(inv), perm)
        assert np.array_equal(perm[inv], np.arange(size))


class TestHalfPrecisionProperties:
    @given(arrays(np.float32, 16, elements=st.floats(-2, 2, width=32)))
    @settings(max_examples=60)
    def test_fp16_round_trip_error_bounded(self, x):
        """fp16 storage error is within the format's relative epsilon for
        the parameter range MF models live in."""
        half = x.astype(np.float16).astype(np.float32)
        assert np.all(np.abs(half - x) <= np.maximum(np.abs(x) * 1e-3, 1e-3))
