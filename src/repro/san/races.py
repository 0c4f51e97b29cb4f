"""Race sanitizer: shadow access logs + the post-fit overlap checker.

Each worker-epoch of waves appends one record of its bound
``(n_waves, width)`` row/column views, and each out-of-core block one
``(worker, epoch, block, rows, cols)`` entry, to an :class:`AccessLog`.
After the fit the checker replays the log and verifies the
batch-Hogwild! execution contract the static schedule checks
(:mod:`repro.lint.races`) can only prove about the *compiled plan*, not
about what the workers actually ran:

* **exactly-once / ownership** — every ``(row, col)`` sample executes
  exactly once per epoch, by exactly one worker. A sample seen under two
  workers is a cross-shard ownership violation (``race-ownership``); the
  same worker executing a sample twice is ``race-double-execution``.
* **within-wave write overlap** — two workers executing the *same* sample
  inside the same concurrent wave race write-for-write on identical P and
  Q rows (``race-overlap``); this is how a tampered/duplicated plan lane
  surfaces.
* **benign race rate** — for concurrent waves, the fraction of samples
  whose row *or* column is simultaneously touched by another worker in
  the same wave: the HOGWILD!-tolerated races, quantified per worker and
  published as ``repro.san.*``.

Entry kinds: ``wave`` (concurrent batch-Hogwild wave — the ``wave`` index
is a cross-worker synchronization point) and ``block`` (an out-of-core
grid block — participates in exactly-once only).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.san.errors import SanFinding

__all__ = [
    "KIND_WAVE",
    "KIND_BLOCK",
    "AccessLog",
    "RaceStats",
    "WorkerRaceStats",
    "analyze_log",
]

#: entry kinds (int8 codes in the flattened log)
KIND_WAVE, KIND_BLOCK = 1, 2
_KIND_CODES = {"wave": KIND_WAVE, "block": KIND_BLOCK}

#: cap on per-finding example coordinates carried into messages
_MAX_EXAMPLES = 3


class AccessLog:
    """Per-worker shadow log of P/Q row writes: one record per worker-epoch
    of waves, one entry per out-of-core block.

    Appends are GIL-atomic, so thread executors share one log without
    locking (each thread appends its own records; the lists themselves
    are the only shared structure).
    """

    __slots__ = ("entries", "_epoch_entries", "_sealed")

    def __init__(self) -> None:
        #: (wid, epoch, wave, kind_code, rows_i32, cols_i32) tuples
        self.entries: list[tuple] = []
        #: (wid, epoch, kind_code, rows_w, cols_w, lengths) whole-epoch
        #: records (:meth:`record_epoch`)
        self._epoch_entries: list[tuple] = []
        #: flat bundles of the entries :meth:`seal` has flattened
        self._sealed: list[dict] = []

    def record(
        self,
        wid: int,
        epoch: int,
        wave: int,
        rows: np.ndarray,
        cols: np.ndarray,
        kind: str = "wave",
    ) -> None:
        """Append one kernel call's write set, such as an out-of-core
        block's (copies — safe for callers whose index buffers recycle
        immediately, e.g. staging slots)."""
        self.entries.append(
            (
                wid, epoch, wave, _KIND_CODES[kind],
                np.array(rows, dtype=np.int32),
                np.array(cols, dtype=np.int32),
            )
        )

    def record_epoch(
        self,
        wid: int,
        epoch: int,
        rows_w: np.ndarray,
        cols_w: np.ndarray,
        lengths: np.ndarray,
        kind: str = "wave",
    ) -> None:
        """Record one executor epoch's full wave-major coverage in O(1).

        ``rows_w``/``cols_w`` are the ``(n_waves, width)`` gathered index
        matrices a worker's wave loop fed its kernel (views into its
        workspace — the caller must :meth:`seal` before the next bind
        regathers them) and ``lengths`` the per-wave live widths: wave
        ``t``'s write set is ``rows_w[t, :lengths[t]]``.
        """
        self._epoch_entries.append(
            (
                wid, epoch, _KIND_CODES[kind], rows_w, cols_w,
                np.asarray(lengths, dtype=np.int64),
            )
        )

    def seal(self) -> None:
        """Flatten pending records into immutable bundles.

        :meth:`record_epoch` keeps *views* of each worker's gathered index
        buffers, which its next bind rewrites, so the coordinator must
        ``seal()`` at every epoch boundary, before the workers rebind
        (:meth:`~repro.san.core.Sanitizer.begin_epoch` and ``epoch_end``
        do): one vectorized pass per worker-epoch instead of two small
        copies per wave. Not thread-safe — call only while no worker is
        appending.
        """
        if self.entries:
            self._sealed.append(self._bundle_entries())
            self.entries.clear()
        if self._epoch_entries:
            for entry in self._epoch_entries:
                self._sealed.append(self._bundle_epoch(entry))
            self._epoch_entries.clear()

    def clear(self) -> None:
        self.entries.clear()
        self._epoch_entries.clear()
        self._sealed = []

    @property
    def n_calls(self) -> int:
        return (
            len(self.entries)
            + sum(len(e[5]) for e in self._epoch_entries)
            + sum(int(b["n_calls"]) for b in self._sealed)
        )

    @property
    def n_samples(self) -> int:
        return (
            sum(len(e[4]) for e in self.entries)
            + sum(int(e[5].sum()) for e in self._epoch_entries)
            + sum(len(b["row"]) for b in self._sealed)
        )

    # -- flattening -----------------------------------------------------
    def _bundle_entries(self) -> dict:
        """Pending entries as one flat bundle (one vectorized pass): the
        entry tuples transposed in a single ``zip`` pass, the index
        buffers coerced by one ``np.concatenate(dtype=...)`` call.
        """
        wids, epochs, waves, kinds, rows, cols = zip(*self.entries)
        widths = np.fromiter(map(len, rows), np.int64, len(rows))
        return {
            "wid": np.repeat(np.array(wids, np.int32), widths),
            "epoch": np.repeat(np.array(epochs, np.int32), widths),
            "wave": np.repeat(np.array(waves, np.int32), widths),
            "kind": np.repeat(np.array(kinds, np.int8), widths),
            "row": np.concatenate(rows, dtype=np.int32, casting="unsafe"),
            "col": np.concatenate(cols, dtype=np.int32, casting="unsafe"),
            "n_calls": len(widths),
        }

    def _bundle_epoch(self, entry: tuple) -> dict:
        """One :meth:`record_epoch` record as a flat bundle."""
        wid, epoch, kind_code, rows_w, cols_w, lengths = entry
        n_waves, width = rows_w.shape
        live = np.arange(width) < lengths[:, None]
        total = int(lengths.sum())
        return {
            "wid": np.full(total, wid, np.int32),
            "epoch": np.full(total, epoch, np.int32),
            "wave": np.repeat(np.arange(n_waves, dtype=np.int32), lengths),
            "kind": np.full(total, kind_code, np.int8),
            "row": rows_w[live].astype(np.int32, copy=False),
            "col": cols_w[live].astype(np.int32, copy=False),
            "n_calls": n_waves,
        }

    def flatten(self) -> dict:
        """The whole log as flat parallel arrays (wid, epoch, wave, kind,
        row, col), concatenating sealed bundles and live entries."""
        bundles = list(self._sealed)
        if self.entries:
            bundles.append(self._bundle_entries())
        bundles.extend(
            self._bundle_epoch(entry) for entry in self._epoch_entries
        )
        keys = ("wid", "epoch", "wave", "kind", "row", "col")
        if not bundles:
            return {
                k: np.empty(0, np.int32 if k != "kind" else np.int8)
                for k in keys
            }
        return {k: np.concatenate([b[k] for b in bundles]) for k in keys}


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------
@dataclass
class WorkerRaceStats:
    """One worker's share of the benign-race accounting."""

    wid: int
    samples: int = 0
    calls: int = 0
    row_raced: int = 0
    col_raced: int = 0
    raced: int = 0

    @property
    def race_rate(self) -> float:
        return self.raced / self.samples if self.samples else 0.0

    def as_dict(self) -> dict:
        return {
            "wid": self.wid,
            "samples": self.samples,
            "calls": self.calls,
            "row_raced": self.row_raced,
            "col_raced": self.col_raced,
            "raced": self.raced,
            "race_rate": self.race_rate,
        }


@dataclass
class RaceStats:
    """Aggregate + per-worker benign-race rates over concurrent waves."""

    workers: list = field(default_factory=list)
    epochs: int = 0
    waves: int = 0

    @property
    def samples(self) -> int:
        return sum(w.samples for w in self.workers)

    @property
    def raced(self) -> int:
        return sum(w.raced for w in self.workers)

    @property
    def race_rate(self) -> float:
        samples = self.samples
        return self.raced / samples if samples else 0.0

    def as_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "waves": self.waves,
            "samples": self.samples,
            "raced": self.raced,
            "race_rate": self.race_rate,
            "workers": [w.as_dict() for w in self.workers],
        }


def _pair_key(row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Collision-free int64 key for a (row, col) sample coordinate."""
    return (row.astype(np.int64) << 31) | col.astype(np.int64)


def _example(msg_parts: list, limit: int = _MAX_EXAMPLES) -> str:
    shown = "; ".join(msg_parts[:limit])
    more = len(msg_parts) - limit
    return shown + (f"; … {more} more" if more > 0 else "")


def _grouped_shared(group: np.ndarray, key: np.ndarray,
                    wid: np.ndarray) -> np.ndarray:
    """Mask of samples whose ``key`` is also used by a *different* worker
    within the same ``group`` (vectorized; no Python loop over groups)."""
    n = len(key)
    out = np.zeros(n, dtype=bool)
    if n == 0:
        return out
    order = np.lexsort((wid, key, group))
    g, k, w = group[order], key[order], wid[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = (g[1:] != g[:-1]) | (k[1:] != k[:-1])
    gid = np.cumsum(new) - 1
    # a (group, key) bucket is "shared" iff, sorted by wid within the
    # bucket, any adjacent pair has differing wids
    mixed_edge = np.zeros(n, dtype=bool)
    mixed_edge[1:] = (~new[1:]) & (w[1:] != w[:-1])
    mixed = np.bincount(gid[mixed_edge], minlength=int(gid[-1]) + 1) > 0
    out[order] = mixed[gid]
    return out


def analyze_log(
    flat: dict,
) -> tuple[list[SanFinding], RaceStats]:
    """Run every race check over a flattened access log.

    Returns ``(findings, stats)``. Findings carry representative wave
    coordinates; ``stats`` quantifies the benign cross-worker race rate
    over concurrent (``wave``-kind) entries. Assumes the rating data holds
    each ``(row, col)`` coordinate at most once (the synthetic pipeline
    guarantees it — :func:`repro.data.synthetic._sample_coordinates` draws
    without replacement), so a duplicated pair in the log is a duplicated
    *execution*, never duplicated data.
    """
    findings: list[SanFinding] = []
    wid = np.asarray(flat["wid"], np.int64)
    epoch = np.asarray(flat["epoch"], np.int64)
    wave = np.asarray(flat["wave"], np.int64)
    kind = np.asarray(flat["kind"], np.int8)
    row = np.asarray(flat["row"], np.int64)
    col = np.asarray(flat["col"], np.int64)
    stats = RaceStats()
    n = len(row)
    if n == 0:
        return findings, stats
    key = _pair_key(row, col)

    # -- exactly-once / ownership per epoch -----------------------------
    order = np.lexsort((wid, key, epoch))
    e, k, w, wv = epoch[order], key[order], wid[order], wave[order]
    dup = (e[1:] == e[:-1]) & (k[1:] == k[:-1])
    cross = dup & (w[1:] != w[:-1])
    same = dup & (w[1:] == w[:-1])
    for mask, fkind, label in (
        (cross, "race-ownership",
         "sample executed by multiple workers in one epoch"),
        (same, "race-double-execution",
         "sample executed twice by one worker in one epoch"),
    ):
        idx = np.flatnonzero(mask)
        if len(idx):
            parts = [
                f"({row[order][i + 1]},{col[order][i + 1]}) "
                f"epoch {e[i + 1]} workers {w[i]}/{w[i + 1]}"
                for i in idx[:_MAX_EXAMPLES]
            ]
            i0 = int(idx[0])
            findings.append(
                SanFinding(
                    kind=fkind,
                    message=f"{label}: {len(idx)} duplicate(s) — "
                    + _example(parts),
                    worker=int(w[i0 + 1]),
                    epoch=int(e[i0 + 1]),
                    wave=int(wv[i0 + 1]),
                )
            )

    # -- within-wave write overlap (concurrent waves only) --------------
    conc = kind == KIND_WAVE
    if conc.any():
        cw, ce, cv = wid[conc], epoch[conc], wave[conc]
        ck, cr, cc = key[conc], row[conc], col[conc]
        order = np.lexsort((cw, ck, cv, ce))
        e2, v2, k2, w2 = ce[order], cv[order], ck[order], cw[order]
        dup = (e2[1:] == e2[:-1]) & (v2[1:] == v2[:-1]) & (k2[1:] == k2[:-1])
        overlap = dup & (w2[1:] != w2[:-1])
        idx = np.flatnonzero(overlap)
        if len(idx):
            parts = [
                f"({cr[order][i + 1]},{cc[order][i + 1]}) epoch {e2[i + 1]} "
                f"wave {v2[i + 1]} workers {w2[i]}/{w2[i + 1]}"
                for i in idx[:_MAX_EXAMPLES]
            ]
            i0 = int(idx[0])
            findings.append(
                SanFinding(
                    kind="race-overlap",
                    message="within-wave write overlap: two workers wrote "
                    f"identical P/Q rows in the same wave — {len(idx)} "
                    "collision(s) — " + _example(parts),
                    worker=int(w2[i0 + 1]),
                    epoch=int(e2[i0 + 1]),
                    wave=int(v2[i0 + 1]),
                )
            )

        # -- benign race rate (row or column shared across workers) -----
        group = ce * (cv.max() + 1) + cv
        row_shared = _grouped_shared(group, cr, cw)
        col_shared = _grouped_shared(group, cc, cw)
        raced = row_shared | col_shared
        stats.epochs = len(np.unique(ce))
        stats.waves = len(np.unique(group))
        for u in np.unique(cw):
            m = cw == u
            stats.workers.append(
                WorkerRaceStats(
                    wid=int(u),
                    samples=int(m.sum()),
                    calls=int(len(np.unique(group[m]))),
                    row_raced=int((row_shared & m).sum()),
                    col_raced=int((col_shared & m).sum()),
                    raced=int((raced & m).sum()),
                )
            )
    else:
        stats.epochs = len(np.unique(epoch))
        for u in np.unique(wid):
            m = wid == u
            stats.workers.append(
                WorkerRaceStats(wid=int(u), samples=int(m.sum()))
            )
    return findings, stats
