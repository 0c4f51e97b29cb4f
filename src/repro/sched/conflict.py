"""Independence predicate and collision statistics.

Eq. 6 of the paper: two updates on samples ``r_{u1,v1}`` and ``r_{u2,v2}``
may run simultaneously iff ``u1 != u2 and v1 != v2``. A wave of concurrent
updates that violates this for some pair is said to contain *conflicts* —
the quantity whose growth with ``s / min(m, n)`` destroys Hogwild
convergence (§7.5).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "independent",
    "count_conflicts",
    "collision_fraction",
    "expected_collision_fraction",
    "wave_is_conflict_free",
]


def independent(u1: int, v1: int, u2: int, v2: int) -> bool:
    """Eq. 6: True when the two updates touch disjoint feature rows."""
    return u1 != u2 and v1 != v2


def count_conflicts(rows: np.ndarray, cols: np.ndarray) -> int:
    """Number of samples in the wave that collide with an earlier sample.

    A sample collides when its row OR its column already appeared earlier in
    the wave. This is the number of updates that would be lost or stale under
    racing execution.
    """
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    if rows.shape != cols.shape:
        raise ValueError("rows and cols must have the same shape")
    seen_rows: set[int] = set()
    seen_cols: set[int] = set()
    conflicts = 0
    for u, v in zip(rows.tolist(), cols.tolist()):
        if u in seen_rows or v in seen_cols:
            conflicts += 1
        seen_rows.add(u)
        seen_cols.add(v)
    return conflicts


def collision_fraction(rows: np.ndarray, cols: np.ndarray) -> float:
    """Fraction of the wave's updates that conflict (vectorized).

    Counts samples whose row is a duplicate of an earlier row or whose column
    duplicates an earlier column — identical to
    ``count_conflicts / len(wave)`` but O(s log s), from first-occurrence
    masks instead of a Python loop.
    """
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    s = len(rows)
    if s == 0:
        return 0.0
    first_row = np.zeros(s, dtype=bool)
    first_col = np.zeros(s, dtype=bool)
    first_row[np.unique(rows, return_index=True)[1]] = True
    first_col[np.unique(cols, return_index=True)[1]] = True
    return int(np.count_nonzero(~(first_row & first_col))) / s


def expected_collision_fraction(s: int, m: int, n: int) -> float:
    """Analytic expected collision fraction of a uniform random wave.

    With ``s`` workers drawing rows uniformly from ``m`` values and columns
    from ``n``, the chance a sample's row is fresh is ``((m-1)/m)^(i)`` for
    the i-th sample; averaging over the wave gives the closed form below.
    This is what makes the paper's ``s ≪ min(m, n)`` rule quantitative.
    """
    if s <= 0:
        return 0.0
    if m <= 0 or n <= 0:
        raise ValueError("m and n must be positive")
    i = np.arange(s, dtype=np.float64)  # lint: fp64-accumulator -- closed-form probability, not on the kernel path
    fresh = ((m - 1) / m) ** i * ((n - 1) / n) ** i
    return float(1.0 - fresh.mean())


def wave_is_conflict_free(rows: np.ndarray, cols: np.ndarray) -> bool:
    """True when no pair in the wave violates Eq. 6."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    return len(np.unique(rows)) == len(rows) and len(np.unique(cols)) == len(cols)
