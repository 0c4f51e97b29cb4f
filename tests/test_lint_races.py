"""Property tests for the schedule race checker.

Two directions, both load-bearing:

* **soundness of the compilers** — any plan the real compilers emit passes
  the checkers (hypothesis sweeps sizes, shapes, duplicate densities);
* **sensitivity of the checkers** — deliberately corrupted plans are always
  caught. A checker that never fires proves nothing, so every corruption
  strategy here is constructed to guarantee a genuine violation.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import (
    check_epoch_plan,
    check_round_grants,
    check_serial_plan,
    check_wavefront_sequences,
    schedule_selfcheck,
    simulate_wavefront_rounds,
)
from repro.sched.plan import EpochPlan, SerialPlan

pytestmark = pytest.mark.lint


def test_schedule_selfcheck_is_clean():
    assert schedule_selfcheck() == []


# ---------------------------------------------------------------------------
# SerialPlan: compiled plans verify; corrupted plans are caught
# ---------------------------------------------------------------------------
@given(
    n=st.integers(1, 300),
    m=st.integers(1, 40),
    k=st.integers(1, 40),
    max_wave=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_compiled_serial_plans_are_conflict_free(n, m, k, max_wave, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, size=n)
    cols = rng.integers(0, k, size=n)
    plan = SerialPlan.compile(rows, cols, max_wave=max_wave)
    assert check_serial_plan(plan, rows, cols) == []


@given(
    n=st.integers(2, 300),
    m=st.integers(1, 20),
    k=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_merging_conflict_cut_segments_is_caught(n, m, k, seed):
    # with max_wave >= n the compiler only cuts on genuine Eq. 6 conflicts,
    # so merging the first two segments must recreate a repeated row/column
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, size=n)
    cols = rng.integers(0, k, size=n)
    plan = SerialPlan.compile(rows, cols, max_wave=n)
    if len(plan.starts) < 2:  # wholly conflict-free draw; nothing to merge
        return
    merged = SerialPlan(
        np.delete(plan.starts, 1), np.delete(plan.stops, 0), plan.max_wave
    )
    violations = check_serial_plan(merged, rows, cols)
    assert any("repeats a" in v for v in violations)


@given(
    n=st.integers(2, 200),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_truncated_coverage_is_caught(n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.permutation(n)  # unique rows/cols: a single segment compiles
    cols = rng.permutation(n)
    plan = SerialPlan.compile(rows, cols, max_wave=n)
    truncated = SerialPlan(plan.starts, plan.stops - 1, plan.max_wave)
    violations = check_serial_plan(truncated, rows, cols)
    assert any("never run" in v or "not contiguous" in v for v in violations)


def test_oversized_segment_is_caught():
    rows = np.arange(10)
    cols = np.arange(10)
    plan = SerialPlan.compile(rows, cols, max_wave=4)
    bloated = SerialPlan(plan.starts, plan.stops, max_wave=2)
    assert any("max_wave" in v for v in check_serial_plan(bloated, rows, cols))


# ---------------------------------------------------------------------------
# EpochPlan: compiled plans verify; corrupted layouts are caught
# ---------------------------------------------------------------------------
@given(
    nnz=st.integers(1, 400),
    workers=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_compiled_epoch_plans_schedule_exactly_once(nnz, workers, seed):
    rng = np.random.default_rng(seed)
    plan = EpochPlan(rng.permutation(nnz).astype(np.int64), workers=workers, f=3)
    assert check_epoch_plan(plan) == []
    plan.repermute(rng)
    assert check_epoch_plan(plan) == []


def _tampered(plan, edit):
    """A stand-in for ``plan`` whose layout is ``plan``'s with ``edit``
    applied to it."""
    matrix = plan.positions(
        0, plan.width, np.empty((plan.n_waves, plan.width), np.int64))
    edit(matrix)
    return SimpleNamespace(
        order=plan.order, lengths=plan.lengths, width=plan.width,
        n_waves=plan.n_waves, nnz=plan.nnz,
        positions=lambda lo, hi, out: matrix[:, lo:hi],
    )


@given(nnz=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_corrupted_epoch_plan_is_caught(nnz, seed):
    rng = np.random.default_rng(seed)
    plan = EpochPlan(rng.permutation(nnz).astype(np.int64), workers=4, f=3)

    def pad_live_slot(matrix):  # padding where a live sample belongs
        matrix[0, 0] = -1

    violations = check_epoch_plan(_tampered(plan, pad_live_slot))
    assert any("padding inside" in v for v in violations)


def test_duplicated_epoch_sample_is_caught():
    rng = np.random.default_rng(0)
    plan = EpochPlan(rng.permutation(20).astype(np.int64), workers=4, f=3)

    def duplicate(matrix):  # sample applied twice, another dropped
        live = matrix[0, : int(plan.lengths[0])]
        other = matrix[-1, 0]
        if other == live[0]:  # pragma: no cover - layout-dependent guard
            other = matrix[-1, int(plan.lengths[-1]) - 1]
        matrix[0, 0] = other

    violations = check_epoch_plan(_tampered(plan, duplicate))
    assert any("multiset mismatch" in v for v in violations)


# ---------------------------------------------------------------------------
# wavefront: coverage + simulated round grants
# ---------------------------------------------------------------------------
@given(
    workers=st.integers(1, 12),
    col_blocks=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_wavefront_permutations_yield_conflict_free_rounds(
    workers, col_blocks, seed
):
    rng = np.random.default_rng(seed)
    sequences = [rng.permutation(col_blocks) for _ in range(workers)]
    assert check_wavefront_sequences(sequences, col_blocks) == []
    rounds = simulate_wavefront_rounds(sequences, col_blocks)
    assert check_round_grants(rounds) == []
    # every (worker, column) block ran exactly once
    granted = [pair for grants in rounds for pair in grants]
    assert len(granted) == workers * col_blocks
    assert len(set(granted)) == workers * col_blocks


@given(
    col_blocks=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_nonpermutation_walk_is_caught(col_blocks, seed):
    rng = np.random.default_rng(seed)
    seq = rng.permutation(col_blocks)
    seq[0] = seq[1]  # one column twice, another never
    assert check_wavefront_sequences([seq], col_blocks)


def test_tampered_round_grants_are_caught():
    rounds = [[(0, 3), (1, 3)]]  # two workers on one column: lock failure
    assert any("column" in v for v in check_round_grants(rounds))
    rounds = [[(0, 1), (0, 2)]]  # one worker in two places at once
    assert any("row conflict" in v for v in check_round_grants(rounds))
    rounds = [[(0, 1)], [(0, 1)]]  # a block replayed across rounds
    assert any("granted twice" in v for v in check_round_grants(rounds))


# ---------------------------------------------------------------------------
# the threaded executors really run the verified protocol
# ---------------------------------------------------------------------------
def test_threaded_wavefront_sequences_verify():
    from repro.parallel.wavefront_threads import ThreadedWavefront

    executor = ThreadedWavefront(workers=4)
    rng = np.random.default_rng(1)
    sequences = [rng.permutation(executor.col_blocks) for _ in range(4)]
    assert check_wavefront_sequences(sequences, executor.col_blocks) == []
    rounds = simulate_wavefront_rounds(sequences, executor.col_blocks)
    assert check_round_grants(rounds) == []
