"""Multi-device SGD (§6): blocks staged to devices, independent blocks in
parallel.

The coordinator divides R into an ``i x j`` grid (:class:`GridPartition`),
and repeatedly dispatches *independent* blocks (pairwise distinct grid rows
and columns, Eq. 6) to idle devices. Each dispatch stages the block's COO
samples plus the touched P/Q segments to the device, runs the single-device
batch-Hogwild! engine on the block, and copies the segments back. Samples are
read-only and never travel back (§6.1 step 3). The engine is one
``backend.replay`` of the block's ``EpochPlan(order, workers, 1)`` on the
executor's kernel backend (:mod:`repro.backends`; ``None`` is the NumPy
reference). The samples stay in host memory: out-of-core training streams
a :class:`~repro.data.blockstore.BlockStore` on the threads executor.

Numeric semantics: blocks dispatched in the same round touch disjoint
feature segments, so executing them back-to-back is identical to running
them on parallel devices — device parallelism here changes *time*, not
*math*; the time side lives in :mod:`repro.gpusim.streams`.

A :class:`TransferLedger` records every modelled byte crossing the
interconnect so performance experiments (Fig. 16, Table 4 Hugewiki rows) can
charge PCIe/NVLink costs faithfully.

Fault tolerance: :meth:`MultiDeviceSGD.attach_faults` installs a
:class:`repro.resilience.faults.FaultInjector`. Staged transfers then pass
through a bounded retry policy (failed attempts recharge the ledger and
raise :class:`~repro.resilience.faults.TransferFaultError` on exhaustion),
and a device killed mid-epoch degrades gracefully — its refused block and
all still-pending blocks rebalance across the surviving devices, so the
epoch completes with every block processed exactly once, just slower. With
no injector attached the code path (and every RNG draw) is identical to the
fault-free implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backends import get_backend
from repro.core.kernels import WaveWorkspace
from repro.core.model import FactorModel
from repro.core.partition import BlockView, GridPartition
from repro.data.container import RatingMatrix
from repro.obs.hooks import (
    BatchEvent,
    TrainerHooks,
    TransferEvent,
    resolve_hooks,
)
from repro.san.core import active_sanitizer
from repro.sched.plan import EpochPlan

__all__ = ["MultiDeviceSGD", "TransferLedger"]


@dataclass
class TransferLedger:
    """Bytes moved across the CPU-device interconnect."""

    h2d_bytes: int = 0
    d2h_bytes: int = 0
    dispatches: int = 0
    rounds: int = 0
    #: bytes retransmitted after injected transfer faults (included above)
    retried_bytes: int = 0

    def charge_dispatch(self, block: BlockView, k: int, feature_bytes: int) -> None:
        feat = block.feature_bytes(k, feature_bytes)
        self.h2d_bytes += block.coo_bytes() + feat
        self.d2h_bytes += feat  # samples are read-only; only features return
        self.dispatches += 1

    def charge_retries(
        self, block: BlockView, k: int, feature_bytes: int,
        h2d_failures: int, d2h_failures: int,
    ) -> None:
        """Recharge the wire for every failed attempt's retransmission."""
        feat = block.feature_bytes(k, feature_bytes)
        h2d_extra = (block.coo_bytes() + feat) * h2d_failures
        d2h_extra = feat * d2h_failures
        self.h2d_bytes += h2d_extra
        self.d2h_bytes += d2h_extra
        self.retried_bytes += h2d_extra + d2h_extra

    @property
    def total_bytes(self) -> int:
        return self.h2d_bytes + self.d2h_bytes


@dataclass
class MultiDeviceSGD:
    """Multi-device epoch executor over an ``i x j`` partition.

    Parameters
    ----------
    n_devices:
        Number of (modelled) GPUs pulling independent blocks.
    i, j:
        Partition grid. The §7.6 rule of thumb: with ``g`` devices use at
        least a ``2g x 2g`` grid, otherwise forced block orders hurt
        convergence.
    workers:
        Concurrent parallel workers *per device* (thread blocks).
    backend:
        Kernel backend each device's pass runs on, as for
        :class:`~repro.core.hogwild.BatchHogwild`; ``None`` (default) is
        the NumPy reference. Resolved and verified once, here.
    """

    n_devices: int
    i: int
    j: int
    workers: int = 256
    seed: int = 0
    backend: object | None = None

    def __post_init__(self) -> None:
        if self.n_devices <= 0:
            raise ValueError(f"n_devices must be positive, got {self.n_devices}")
        if self.n_devices > min(self.i, self.j):
            raise ValueError(
                f"{self.n_devices} devices cannot all hold independent blocks "
                f"of a {self.i}x{self.j} grid; need n_devices <= min(i, j)"
            )
        if self.workers <= 0:
            raise ValueError(f"workers must be positive, got {self.workers}")
        self._rng = np.random.default_rng(self.seed)
        self._partition: GridPartition | None = None
        self.ledger = TransferLedger()
        self._injector = None
        self._retry = None
        #: per-coordinator kernel scratch (devices run their blocks serially
        #: here, so one workspace serves them all)
        self.workspace = WaveWorkspace()
        self._backend = get_backend(self.backend)

    # ------------------------------------------------------------------
    def attach_faults(self, faults, retry=None) -> "MultiDeviceSGD":
        """Install a fault model for every subsequent epoch.

        ``faults`` is a :class:`repro.resilience.faults.FaultPlan` (wrapped
        in a fresh injector) or a ready :class:`FaultInjector` (shared
        state — e.g. one carrying an explicit registry). ``retry`` defaults
        to :class:`repro.resilience.retry.RetryPolicy()`. Device deaths
        persist across epochs, as they would on real hardware.
        """
        from repro.resilience.faults import FaultInjector
        from repro.resilience.retry import RetryPolicy

        self._injector = (
            faults if isinstance(faults, FaultInjector) else FaultInjector(faults)
        )
        self._retry = retry if retry is not None else RetryPolicy()
        return self

    @property
    def injector(self):
        """The attached :class:`FaultInjector`, or None when fault-free."""
        return self._injector

    # ------------------------------------------------------------------
    def partition_for(self, ratings: RatingMatrix) -> GridPartition:
        if self._partition is None or self._partition.ratings is not ratings:
            self._partition = GridPartition(ratings, self.i, self.j)
        return self._partition

    def _pick_round(
        self, pending: set[tuple[int, int]], limit: int | None = None
    ) -> list[tuple[int, int]]:
        """Randomly select up to ``limit`` pairwise-independent blocks
        (default: one per device)."""
        limit = self.n_devices if limit is None else limit
        chosen: list[tuple[int, int]] = []
        used_rows: set[int] = set()
        used_cols: set[int] = set()
        order = list(pending)
        self._rng.shuffle(order)
        for blk in order:
            if len(chosen) == limit:
                break
            if blk[0] not in used_rows and blk[1] not in used_cols:
                chosen.append(blk)
                used_rows.add(blk[0])
                used_cols.add(blk[1])
        return chosen

    def _device_pass(
        self,
        model: FactorModel,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        lr: float,
        lam_p: float,
        lam_q: float,
    ) -> int:
        """Single-device batch-Hogwild! pass over one block's samples: one
        permutation draw, then one ``backend.replay`` of its waves of
        ``workers`` consecutive samples -- ``EpochPlan(order, workers, 1)``."""
        n = len(rows)
        if not n:
            return 0
        plan = EpochPlan(self._rng.permutation(n), self.workers, 1)
        return self._backend.replay(self.workspace, plan, model.p, model.q,
                                    rows, cols, vals, lr, lam_p, lam_q)

    # ------------------------------------------------------------------
    def run_epoch(
        self,
        model: FactorModel,
        ratings: RatingMatrix,
        lr: float,
        lam_p: float,
        lam_q: float | None = None,
        hooks: TrainerHooks | None = None,
    ) -> int:
        """One epoch: every block of the grid is updated exactly once.

        ``hooks`` receives ``on_transfer`` events for every staged block's
        modelled H2D/D2H bytes (the :class:`TransferLedger` traffic) and one
        ``on_batch`` per block executed.

        With faults attached (:meth:`attach_faults`), staged transfers
        retry under the bounded policy (exhaustion raises
        :class:`~repro.resilience.faults.TransferFaultError`) and a device
        death mid-epoch rebalances its blocks across survivors — the epoch
        still processes every block exactly once. Losing the *last* device
        with blocks pending raises
        :class:`~repro.resilience.faults.DeviceLostError`.

        An active sanitizer records each executed block under its device
        and sweeps the model at the epoch's end.
        """
        lam_q = lam_p if lam_q is None else lam_q
        hooks = resolve_hooks(hooks)
        observe = hooks.active
        san = active_sanitizer()
        epoch = san.begin_epoch() if san is not None else 0
        part = self.partition_for(ratings)
        feature_bytes = 2 if model.half_precision else 4
        pending = {(bi, bj) for bi in range(self.i) for bj in range(self.j)}
        updates = 0
        injector = self._injector
        alive = (
            list(range(self.n_devices))
            if injector is None
            else [d for d in range(self.n_devices) if injector.alive(d)]
        )
        while pending:
            if injector is not None and not alive:
                from repro.resilience.faults import DeviceLostError

                raise DeviceLostError(
                    f"all {self.n_devices} devices lost with "
                    f"{len(pending)} blocks pending"
                )
            round_blocks = self._pick_round(pending, len(alive))
            if not round_blocks:
                raise RuntimeError("no independent block available — scheduling bug")
            self.ledger.rounds += 1
            if injector is not None and len(alive) < self.n_devices:
                injector.emit("degraded_rounds")
            for slot, (bi, bj) in enumerate(round_blocks):
                device = alive[slot]
                if injector is not None and not injector.begin_dispatch(device):
                    # device died: its block stays pending and, with every
                    # other unfinished block, rebalances across survivors
                    injector.emit("blocks_rebalanced", len(pending))
                    continue
                view = part.block(bi, bj)
                if injector is not None:
                    self._stage_with_retry(injector, device, view, model.k,
                                           feature_bytes)
                self.ledger.charge_dispatch(view, model.k, feature_bytes)
                idx = view.sample_index
                block = ratings.rows[idx], ratings.cols[idx], ratings.vals[idx]
                n = self._device_pass(model, *block, lr, lam_p, lam_q)
                if san is not None:
                    san.block_executed(device, epoch, self.ledger.rounds,
                                       block[0], block[1])
                updates += n
                pending.discard((bi, bj))
                if injector is not None:
                    injector.complete_dispatch(device)
                if observe:
                    feat = view.feature_bytes(model.k, feature_bytes)
                    hooks.on_transfer(
                        TransferEvent(
                            direction="h2d",
                            n_bytes=view.coo_bytes() + feat,
                            device=device,
                            block=(bi, bj),
                        )
                    )
                    hooks.on_transfer(
                        TransferEvent(
                            direction="d2h", n_bytes=feat, device=device,
                            block=(bi, bj),
                        )
                    )
                    hooks.on_batch(
                        BatchEvent(
                            scheme="multi_device",
                            worker=device,
                            block=(bi, bj),
                            n_updates=n,
                        )
                    )
            if injector is not None:
                alive = [d for d in alive if injector.alive(d)]
        if san is not None:
            san.epoch_end(model.p, model.q, epoch=epoch)
        return updates

    def epoch_extras(self) -> dict:
        """Cumulative transfer rounds and bytes for the epoch event."""
        return {
            "transfer_rounds": self.ledger.rounds,
            "transfer_bytes": self.ledger.total_bytes,
        }

    # ------------------------------------------------------------------
    def _stage_with_retry(
        self, injector, device: int, view: BlockView, k: int, feature_bytes: int
    ) -> None:
        """Resolve this dispatch's planned transfer faults against the
        retry policy: count retries, recharge retransmitted bytes, raise
        ``TransferFaultError`` when a direction exhausts the budget."""
        h2d_failures = injector.transfer_failures(device, "h2d")
        d2h_failures = injector.transfer_failures(device, "d2h")
        if not (h2d_failures or d2h_failures):
            return
        backoff = 0.0
        for direction, failures in (("h2d", h2d_failures), ("d2h", d2h_failures)):
            if not failures:
                continue
            injector.emit("transfer_faults", failures)
            outcome = self._retry.charge(
                failures, what=f"{direction} transfer (device {device})"
            )  # raises TransferFaultError on exhaustion
            injector.emit("retries", outcome.failures)
            backoff += outcome.backoff_seconds
        injector.emit("retry_backoff_seconds", backoff)
        self.ledger.charge_retries(view, k, feature_bytes, h2d_failures, d2h_failures)
