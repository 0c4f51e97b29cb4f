"""SGD update kernels (§4 of the paper), as vectorized NumPy.

On the GPU, one *parallel worker* is a 32-thread thread block that performs
one SGD update: read the sample, read ``p_u`` and ``q_v``, compute the error
via a warp-shuffle dot product, and write both feature vectors back. Hundreds
of such workers run concurrently and race on shared feature matrices
(Hogwild! semantics — no locks, lost updates allowed).

Here, one call to :func:`sgd_wave_update` executes **one concurrent wave**:
``s`` workers each perform one update *from the same snapshot* of P and Q.

Race semantics, made explicit
-----------------------------
* **Stale reads** — all workers gather ``P[rows]`` / ``Q[cols]`` before any
  worker writes, the most adversarial interleaving a real GPU can produce
  within a wave.
* **Lost updates** — the scatter ``P[rows] = new`` resolves duplicate rows
  with last-writer-wins, exactly like racing non-atomic stores.

This makes the convergence behaviour of parallel SGD (the ``s ≪ min(m, n)``
requirement of §7.5) reproducible and deterministic.

Half-precision (§4) is modelled by storing P/Q as ``float16`` and computing
in ``float32``, matching the paper's claim that fp16 storage halves feature
traffic without hurting accuracy.

Divergence semantics
--------------------
The kernels never mask numerical trouble: when a run diverges (huge learning
rate, adversarial data) the fp32 arithmetic overflows to ``inf`` and then
produces ``nan``, which propagates into every factor the poisoned samples
touch. That propagation is *intentional* — it is what the divergence guards
(:attr:`repro.core.trainer.TrainHistory.diverged`, the
:class:`repro.resilience.trainer.ResilientTrainer` NaN guard) key on. The
update arithmetic therefore runs under ``np.errstate(over="ignore",
invalid="ignore")`` so diverging runs stay warning-clean instead of spamming
``RuntimeWarning`` while producing the exact same bits.

Zero-allocation steady state
----------------------------
:class:`WaveWorkspace` preallocates every scratch buffer the wave kernel
needs (gathers, the error vector, gradient temporaries) and exposes the same
arithmetic through ``out=``-driven ufunc/einsum calls. Passing a workspace to
:func:`sgd_wave_update` / :func:`sgd_serial_update` makes the hot path
allocation-free after the first wave, with bit-identical results to the
allocating path (pinned by ``tests/test_plan.py``). A workspace is **not**
thread-safe — give each concurrent worker its own.
"""

from __future__ import annotations

import numpy as np

from repro.sched.plan import SerialPlan

try:  # np.einsum(optimize=False) forwards verbatim to this C entry point;
    # calling it directly skips ~1.5us of wrapper per wave (identical bits)
    from numpy._core._multiarray_umath import c_einsum as _c_einsum
except ImportError:  # pragma: no cover - older numpy module layout
    try:
        from numpy.core._multiarray_umath import c_einsum as _c_einsum
    except ImportError:
        _c_einsum = np.einsum

__all__ = [
    "sgd_wave_update",
    "sgd_serial_update",
    "single_update",
    "wave_gradients",
    "conflict_free_segments",
    "WaveWorkspace",
]

#: ufunc error-state under which all update arithmetic runs: divergence
#: produces inf/nan silently (see module docstring) instead of RuntimeWarning.
UPDATE_ERRSTATE = {"over": "ignore", "invalid": "ignore"}


def _gather(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Snapshot-read rows of a feature matrix, promoting fp16 to fp32.

    Fancy indexing copies, which is precisely the snapshot we want.
    """
    rows = mat[idx]
    if rows.dtype != np.float32:
        rows = rows.astype(np.float32)
    return rows


def _scatter(mat: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """Racy write-back: duplicate indices resolve last-writer-wins."""
    if mat.dtype == np.float32:
        mat[idx] = values
    else:
        mat[idx] = values.astype(mat.dtype)


class WaveWorkspace:
    """Preallocated scratch buffers for allocation-free wave kernels.

    One workspace serves any wave width up to its reserved capacity and any
    feature dimension ``k`` (buffers grow monotonically, never shrink). Two
    kinds of buffers live here:

    * **kernel scratch** — the gathered ``p_u``/``q_v`` snapshots, the error
      vector, and two gradient temporaries consumed by :meth:`wave_update`;
    * **wave-major gathers** — :meth:`bind_plan` lays a plan shard's lanes
      out into a positions buffer and materializes its per-wave
      row/col/value arrays as three ``(n_waves, width)`` matrices with one
      vectorized ``take`` each, so the Python wave loop slices views
      instead of gathering per wave;
    * **staging scratch** — :meth:`stage_scratch`, one group's waves, into
      which a compiled kernel copies a plan shard's samples from the
      shuffled order as it replays (no epoch-sized gather at all).

    Counters (surfaced as ``repro.train.extra.workspace_*`` via the trainer):
    ``allocations`` buffer (re)allocations, ``waves`` kernel launches served,
    ``plan_binds`` epoch gathers, ``nbytes`` bytes currently held.

    Not thread-safe: concurrent executors must each own one.
    """

    __slots__ = (
        "allocations", "waves", "plan_binds",
        "_capacity", "_k", "_pu", "_qv", "_t1", "_t2", "_t3",
        "_err", "_err2", "_views",
        "_pu16", "_qv16",
        "_pos", "_rows_w", "_cols_w", "_vals_w", "_bound_shape", "_bound_key",
        "_cast_cache", "_checked_ids", "_stage",
    )

    def __init__(self) -> None:
        self.allocations = 0
        self.waves = 0
        self.plan_binds = 0
        self._capacity = 0
        self._k = 0
        self._pu = self._qv = self._t1 = self._t2 = self._t3 = None
        self._err = self._err2 = None
        self._pu16 = self._qv16 = None
        self._views: dict[int, tuple] = {}
        self._pos = self._rows_w = self._cols_w = self._vals_w = None
        self._bound_shape: tuple[int, int] | None = None
        self._bound_key: tuple | None = None
        self._cast_cache: tuple | None = None
        self._checked_ids: tuple | None = None
        self._stage: tuple | None = None

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        total = 0
        for name in ("_pu", "_qv", "_t1", "_t2", "_t3", "_err",
                     "_pu16", "_qv16", "_pos", "_rows_w", "_cols_w",
                     "_vals_w"):
            buf = getattr(self, name)
            if buf is not None:
                total += buf.nbytes
        if self._stage is not None:
            total += sum(buf.nbytes for buf in self._stage)
        return total

    def reserve(self, capacity: int, k: int, half_precision: bool = False) -> None:
        """Ensure kernel scratch for waves up to ``capacity`` samples x ``k``.

        ``k`` is exact-fit (scratch rows stay contiguous, so the einsum path
        is byte-for-byte the one the allocating kernel takes); capacity only
        grows.
        """
        if capacity <= self._capacity and k == self._k and (
            not half_precision or self._pu16 is not None
        ):
            return
        capacity = max(capacity, self._capacity)
        shape = (capacity, k)
        self._pu = np.empty(shape, np.float32)
        self._qv = np.empty(shape, np.float32)
        self._t1 = np.empty(shape, np.float32)
        self._t2 = np.empty(shape, np.float32)
        self._t3 = np.empty(shape, np.float32)
        self._err = np.empty(capacity, np.float32)
        self._err2 = self._err[:, None]
        if half_precision or self._pu16 is not None:
            self._pu16 = np.empty(shape, np.float16)
            self._qv16 = np.empty(shape, np.float16)
        self._capacity = capacity
        self._k = k
        self._views = {}
        self.allocations += 1

    def kernel_scratch(self, capacity: int, k: int) -> tuple:
        """The full ``p_u``/``q_v`` snapshot buffers and error vector, after
        :meth:`reserve` — the scratch a compiled kernel writes in place."""
        self.reserve(capacity, k)
        return self._pu, self._qv, self._err

    def stage_scratch(self, width: int, f: int) -> tuple:
        """Row ids, column ids (intp) and ratings (fp32) for one group of
        ``f`` waves of ``width`` lanes, wave-major — where a compiled
        kernel stages a plan shard from its order. Grows, never shrinks."""
        stage = self._stage
        if stage is None or len(stage[0]) < width * f:
            n = width * f
            self._stage = stage = (np.empty(n, np.intp), np.empty(n, np.intp),
                                   np.empty(n, np.float32))
            self.allocations += 1
        return stage

    def check_ids(self, rows: np.ndarray, cols: np.ndarray, m: int, n: int) -> None:
        """Raise :class:`IndexError` unless every row id is in ``[0, m)``
        and every column id in ``[0, n)``. A compiled kernel indexes
        without bounds checks; like :meth:`bind_plan`'s cast cache, the
        check runs once per (rows, cols) array pair, not per epoch.
        """
        done = self._checked_ids
        if (done is not None and done[0] is rows and done[1] is cols
                and done[2] == m and done[3] == n):
            return
        for ids, bound, axis in ((rows, m, "row"), (cols, n, "column")):
            if len(ids) and (ids.min() < 0 or ids.max() >= bound):
                raise IndexError(
                    f"{axis} ids span [{ids.min()}, {ids.max()}], outside "
                    f"the model's [0, {bound})"
                )
        self._checked_ids = (rows, cols, m, n)

    def _views_for(self, w: int, fp16: bool) -> tuple:
        views = self._views.get(w)
        if views is None:
            views = (
                self._pu[:w], self._qv[:w],
                self._t1[:w], self._t2[:w], self._t3[:w],
                self._err[:w], self._err2[:w],
                self._pu16[:w] if fp16 else None,
                self._qv16[:w] if fp16 else None,
            )
            self._views[w] = views
        return views

    # ------------------------------------------------------------------
    def bind_plan(
        self,
        shard,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather a plan shard's wave-major row/col/value matrices.

        ``shard`` is a :class:`~repro.sched.plan.PlanShard` or a whole
        :class:`~repro.sched.plan.EpochPlan`. Its lanes are laid out into
        this workspace's positions buffer
        (:meth:`~repro.sched.plan.EpochPlan.positions`), then one
        vectorized ``take`` per array replaces one small gather per wave.
        ``-1`` padding indexes the last sample — harmless, as consumers
        only read the first ``shard.lengths[i]`` entries of each row.
        Returned arrays are views into workspace buffers, valid until the
        next bind. A bind is skipped entirely when the plan (same version
        — i.e. not re-permuted since), the lanes and the data arrays are
        unchanged.
        """
        plan, lo, hi = shard.plan, shard.col_lo, shard.col_hi
        shape = (shard.n_waves, hi - lo)
        bk = self._bound_key
        if (
            bk is not None
            and bk[0] is plan
            and bk[1] == plan.version
            and bk[2] == lo
            and bk[3] == hi
            and bk[4] is rows
            and bk[5] is cols
            and bk[6] is vals
        ):
            return (
                self._rows_w[: shape[0], : shape[1]],
                self._cols_w[: shape[0], : shape[1]],
                self._vals_w[: shape[0], : shape[1]],
            )
        if self._bound_shape is None or (
            shape[0] > self._bound_shape[0] or shape[1] > self._bound_shape[1]
        ):
            alloc = (
                max(shape[0], self._bound_shape[0] if self._bound_shape else 0),
                max(shape[1], self._bound_shape[1] if self._bound_shape else 0),
            )
            # row/col IDs are gathered as intp: per-wave take/scatter then
            # skips the index-cast numpy performs for narrower dtypes
            # (~4us/wave), and the IDs themselves are dtype-agnostic values
            self._pos = np.empty(alloc[0] * alloc[1], np.int64)  # lint: hotpath-alloc -- grow-once branch, amortized across epochs
            self._rows_w = np.empty(alloc, np.intp)  # lint: hotpath-alloc -- grow-once branch, amortized across epochs
            self._cols_w = np.empty(alloc, np.intp)  # lint: hotpath-alloc -- grow-once branch, amortized across epochs
            self._vals_w = np.empty(alloc, vals.dtype)  # lint: hotpath-alloc -- grow-once branch, amortized across epochs
            self._bound_shape = alloc
            self.allocations += 1
        cast = self._cast_cache
        if cast is None or cast[0] is not rows or cast[2] is not cols:
            rows64 = rows if rows.dtype == np.intp else rows.astype(np.intp)  # lint: hotpath-alloc -- once per data array, cached below
            cols64 = cols if cols.dtype == np.intp else cols.astype(np.intp)  # lint: hotpath-alloc -- once per data array, cached below
            self._cast_cache = cast = (rows, rows64, cols, cols64)
        pos = plan.positions(
            lo, hi, self._pos[: shape[0] * shape[1]].reshape(shape)
        )
        rw = self._rows_w[: shape[0], : shape[1]]
        cw = self._cols_w[: shape[0], : shape[1]]
        vw = self._vals_w[: shape[0], : shape[1]]
        np.take(cast[1], pos, out=rw)
        np.take(cast[3], pos, out=cw)
        np.take(vals, pos, out=vw)
        self._bound_key = (plan, plan.version, lo, hi, rows, cols, vals)
        self.plan_binds += 1
        return rw, cw, vw

    # ------------------------------------------------------------------
    def wave_update(
        self,
        p: np.ndarray,
        q: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        lr: float,
        lam_p: float,
        lam_q: float,
    ) -> np.ndarray:
        """Allocation-free :func:`sgd_wave_update` body.

        Identical arithmetic, identical operation order, identical bits —
        only the temporaries live in preallocated buffers. The returned error
        vector is a view into workspace scratch, overwritten by the next
        wave. Caller manages ``np.errstate`` (hot loops wrap whole epochs).
        """
        w = len(rows)
        k = p.shape[1]
        fp16 = p.dtype != np.float32 or q.dtype != np.float32
        self.reserve(w, k, half_precision=fp16)
        pu, qv, t1, t2, t3, err, err2, pu16, qv16 = self._views_for(w, fp16)
        if p.dtype == np.float32:
            p.take(rows, 0, pu)
        else:
            p.take(rows, 0, pu16)
            np.copyto(pu, pu16)
        if q.dtype == np.float32:
            q.take(cols, 0, qv)
        else:
            q.take(cols, 0, qv16)
            np.copyto(qv, qv16)
        _c_einsum("ij,ij->i", pu, qv, out=err)
        if vals.dtype == np.float32:
            np.subtract(vals, err, err)
        else:
            np.subtract(vals.astype(np.float32), err, err)  # lint: hotpath-alloc -- non-fp32 ratings fallback, cold by contract
        lr32 = lr if type(lr) is np.float32 else np.float32(lr)
        lam_p32 = lam_p if type(lam_p) is np.float32 else np.float32(lam_p)
        lam_q32 = lam_q if type(lam_q) is np.float32 else np.float32(lam_q)
        # expand err once: a contiguous (w, k) copy makes the two products
        # below contiguous multiplies, ~2x faster than broadcasting the
        # (w, 1) view twice — same values, bit for bit
        np.copyto(t3, err2)
        # new_p = pu + lr * (err*qv - lam_p*pu), exactly as the allocating path
        np.multiply(t3, qv, t1)
        np.multiply(lam_p32, pu, t2)
        np.subtract(t1, t2, t1)
        np.multiply(lr32, t1, t1)
        # new_q needs the *old* pu, so build its first factor before reusing t2
        np.multiply(t3, pu, t2)
        np.add(pu, t1, t1)
        np.multiply(lam_q32, qv, t3)
        np.subtract(t2, t3, t2)
        np.multiply(lr32, t2, t2)
        np.add(qv, t2, t2)
        if p.dtype == np.float32:
            p[rows] = t1
        else:
            np.copyto(pu16, t1)
            p[rows] = pu16
        if q.dtype == np.float32:
            q[cols] = t2
        else:
            np.copyto(qv16, t2)
            q[cols] = qv16
        self.waves += 1
        return err


def wave_gradients(
    p: np.ndarray,
    q: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    lam_p: float,
    lam_q: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample errors and raw gradient directions for one wave.

    Returns ``(err, gp, gq)`` where ``gp = err*q_v - λ_p*p_u`` is the ascent
    direction for ``p_u`` (line 9 of Algorithm 1) and ``gq`` likewise for
    ``q_v``. No writes are performed.
    """
    with np.errstate(**UPDATE_ERRSTATE):
        pu = _gather(p, rows)
        qv = _gather(q, cols)
        err = vals.astype(np.float32) - np.einsum("ij,ij->i", pu, qv)
        gp = err[:, None] * qv - lam_p * pu
        gq = err[:, None] * pu - lam_q * qv
    return err, gp, gq


def sgd_wave_update(
    p: np.ndarray,
    q: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    lr: float,
    lam_p: float,
    lam_q: float | None = None,
    workspace: WaveWorkspace | None = None,
) -> np.ndarray:
    """One concurrent wave of SGD updates with Hogwild race semantics.

    Every sample in the wave is one parallel worker's update. All reads use
    the pre-wave snapshot of P and Q; writes race (last writer wins on
    duplicate rows/columns). Mutates ``p`` and ``q`` in place and returns the
    per-sample prediction errors (useful for monitoring).

    With a :class:`WaveWorkspace` the kernel is allocation-free and the
    returned error vector is a scratch view (overwritten by the next wave);
    without one it is a fresh array. Both paths produce identical bits.
    Diverging arithmetic silently yields inf/nan (see module docstring).
    """
    lam_q = lam_p if lam_q is None else lam_q
    if workspace is not None:
        with np.errstate(**UPDATE_ERRSTATE):
            return workspace.wave_update(p, q, rows, cols, vals, lr, lam_p, lam_q)
    return _wave_update_allocating(p, q, rows, cols, vals, lr, lam_p, lam_q)


def _wave_update_allocating(
    p: np.ndarray,
    q: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    lr: float,
    lam_p: float,
    lam_q: float,
) -> np.ndarray:
    """Legacy allocating wave kernel — the reference the workspace path must
    match bit for bit. Not registered hot: steady-state training binds a
    :class:`WaveWorkspace`; this body allocates fresh temporaries per wave.
    """
    with np.errstate(**UPDATE_ERRSTATE):
        pu = _gather(p, rows)
        qv = _gather(q, cols)
        err = vals.astype(np.float32) - np.einsum("ij,ij->i", pu, qv)
        lr32 = np.float32(lr)
        new_p = pu + lr32 * (err[:, None] * qv - np.float32(lam_p) * pu)
        new_q = qv + lr32 * (err[:, None] * pu - np.float32(lam_q) * qv)
        _scatter(p, rows, new_p)
        _scatter(q, cols, new_q)
    return err


def single_update(
    p: np.ndarray,
    q: np.ndarray,
    u: int,
    v: int,
    r: float,
    lr: float,
    lam_p: float,
    lam_q: float | None = None,
) -> float:
    """Exactly one serial SGD update (lines 8-10 of Algorithm 1).

    The reference semantics against which the wave kernel is validated:
    ``sgd_wave_update`` on a single sample must match this bit-for-bit in
    fp32. Returns the prediction error before the update.
    """
    lam_q = lam_p if lam_q is None else lam_q
    with np.errstate(**UPDATE_ERRSTATE):
        pu = p[u].astype(np.float32)
        qv = q[v].astype(np.float32)
        err = np.float32(r) - np.float32(np.dot(pu, qv))
        lr32 = np.float32(lr)
        new_p = pu + lr32 * (err * qv - np.float32(lam_p) * pu)
        new_q = qv + lr32 * (err * pu - np.float32(lam_q) * qv)
        p[u] = new_p if p.dtype == np.float32 else new_p.astype(p.dtype)
        q[v] = new_q if q.dtype == np.float32 else new_q.astype(q.dtype)
    return float(err)


def conflict_free_segments(
    rows: np.ndarray, cols: np.ndarray, max_wave: int = 64
) -> list[tuple[int, int]]:
    """Greedy partition of a sample sequence into conflict-free runs.

    Each returned ``[start, stop)`` segment contains no repeated row and no
    repeated column (Eq. 6 holds pairwise within it), and is at most
    ``max_wave`` long. Conflict-free waves commute with serial execution, so
    replaying the segments in order is numerically identical to a serial
    pass over the sequence. (Thin wrapper over
    :meth:`repro.sched.plan.SerialPlan.compile`.)
    """
    return SerialPlan.compile(rows, cols, max_wave).segments()


def sgd_serial_update(
    p: np.ndarray,
    q: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    lr: float,
    lam_p: float,
    lam_q: float | None = None,
    max_wave: int = 64,
    workspace: WaveWorkspace | None = None,
) -> None:
    """Serial-equivalent batched update for samples owned by ONE worker.

    Within a parallel worker (a block of the wavefront grid, or one
    batch-Hogwild! chunk) updates are executed serially on the GPU. Looping
    one sample at a time in Python is prohibitively slow, so the sequence is
    compiled into a :class:`~repro.sched.plan.SerialPlan` of conflict-free
    sub-waves, which are numerically faithful to per-worker serial order,
    just faster. A :class:`WaveWorkspace` makes the replay allocation-free.
    """
    lam_q = lam_p if lam_q is None else lam_q
    plan = SerialPlan.compile(rows, cols, max_wave)
    if workspace is not None:
        with np.errstate(**UPDATE_ERRSTATE):
            for start, stop in zip(plan.starts.tolist(), plan.stops.tolist()):
                workspace.wave_update(
                    p, q, rows[start:stop], cols[start:stop], vals[start:stop],
                    lr, lam_p, lam_q,
                )
        return
    for start, stop in zip(plan.starts.tolist(), plan.stops.tolist()):
        sgd_wave_update(
            p,
            q,
            rows[start:stop],
            cols[start:stop],
            vals[start:stop],
            lr,
            lam_p,
            lam_q,
        )
