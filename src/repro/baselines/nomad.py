"""NOMAD reimplementation: decentralized column-token SGD + network model.

NOMAD (Yun et al., VLDB '14) partitions the *rows* of R across nodes and
circulates the columns of Q as tokens: the node holding token ``v`` updates
all of its local samples in column ``v`` against ``q_v``, then passes the
token to a random other node. No two nodes ever hold the same column, and
row partitions are disjoint, so updates are conflict-free by construction —
at the price of moving every ``q_v`` across the network continually.

Numeric semantics: one epoch sends every token through every node once (in
a random node order per column), each visit processing that node's samples
for the column serially. Because token holders are unique per column and
rows are partitioned, serializing visits is numerically identical to the
distributed execution.

Performance: :func:`nomad_epoch_seconds` charges the cluster model — the
per-node CPU compute rate against per-node network injection bandwidth for
the token traffic — reproducing the paper's observations that NOMAD only
speeds up ~5.6x on 32 nodes (Fig. 2b's collapsing memory efficiency) and
loses to LIBMF outright on Yahoo!Music (where n is large, so token traffic
is heaviest).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.kernels import WaveWorkspace, sgd_serial_update
from repro.core.lr_schedule import LearningRateSchedule, NomadSchedule
from repro.core.model import FactorModel
from repro.core.trainer import EpochSolver
from repro.data.container import RatingMatrix, SAMPLE_BYTES
from repro.data.synthetic import DatasetSpec
from repro.gpusim.specs import ClusterSpec, NOMAD_HPC_CLUSTER
from repro.obs.hooks import TrainerHooks

__all__ = ["NOMADSolver", "nomad_epoch_seconds", "nomad_memory_efficiency"]


class NOMADSolver(EpochSolver):
    """Column-token decentralized SGD (numeric path)."""

    scheme = "nomad"

    def __init__(
        self,
        k: int = 32,
        nodes: int = 4,
        lam: float = 0.05,
        schedule: LearningRateSchedule | None = None,
        seed: int = 0,
    ) -> None:
        if k <= 0 or nodes <= 0:
            raise ValueError("k and nodes must be positive")
        self.k = k
        self.nodes = nodes
        self.lam = lam
        self.schedule = schedule or NomadSchedule()
        self.seed = seed
        #: token hops performed in the last fit (network-traffic accounting)
        self.token_hops = 0

    # ------------------------------------------------------------------
    def _index_by_node(
        self, train: RatingMatrix, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """index[node] -> sample positions of that node's row partition."""
        node_of_row = rng.integers(0, self.nodes, size=train.n_rows)
        node = node_of_row[train.rows]
        order = np.argsort(node, kind="stable")
        bounds = np.searchsorted(node[order], np.arange(self.nodes + 1))
        return [order[bounds[nd] : bounds[nd + 1]] for nd in range(self.nodes)]

    @contextmanager
    def session(self, model: FactorModel, train: RatingMatrix):
        """Per-fit state: the rng, the hop count, the kernel's workspace and
        the row partition, drawn from the rng before any epoch."""
        self._rng = np.random.default_rng(self.seed)
        self._workspace = WaveWorkspace()
        self.token_hops = 0
        self._index = self._index_by_node(train, self._rng)
        yield model

    def run_epoch(self, model: FactorModel, ratings: RatingMatrix, lr: float,
                  lam_p: float, lam_q: float | None = None,
                  hooks: TrainerHooks | None = None) -> int:
        """One epoch of ring-style token circulation.

        Tokens circulate in a ring: node order is permuted per epoch, and
        each node processes every token (column) it receives in a per-epoch
        random column order before passing it on. Within a node that is one
        long serial sample sequence sorted by the column permutation, which
        we execute with one serial-equivalent call — numerically identical
        to per-token processing, since each column is exclusive to one node
        at a time and row partitions are disjoint.
        """
        rng = self._rng
        updates = 0
        rows, cols, vals = ratings.rows, ratings.cols, ratings.vals
        col_rank = rng.permutation(ratings.n_cols).astype(np.int64)
        for nd in rng.permutation(self.nodes):
            node_idx = self._index[nd]
            self.token_hops += ratings.n_cols
            if not len(node_idx):
                continue
            # Round-robin across the node's resident tokens: sample t of
            # each column runs before sample t+1 of any column. This matches
            # a node whose worker cores cycle through their token queue, and
            # keeps serial-equivalent segments long (consecutive samples hit
            # different columns).
            c = col_rank[cols[node_idx]]
            order_by_col = np.argsort(c, kind="stable")
            sorted_c = c[order_by_col]
            within = np.arange(len(sorted_c)) - np.searchsorted(sorted_c, sorted_c)
            key = within.astype(np.int64) * ratings.n_cols + sorted_c
            idx = node_idx[order_by_col][np.argsort(key, kind="stable")]
            sgd_serial_update(
                model.p, model.q, rows[idx], cols[idx], vals[idx],
                lr, lam_p, lam_q, workspace=self._workspace,
            )
            updates += len(idx)
        return updates


# ----------------------------------------------------------------------
# performance model
# ----------------------------------------------------------------------
#: Per-token-message handling cost on a node: MPI send/recv of a ~600-byte
#: message plus queue management, ~50 us of software+wire time. This single
#: constant keeps the model in the paper's regime: strongly sub-linear
#: Netflix scaling, NOMAD losing to single-node LIBMF on Yahoo!Music (whose
#: n = 625k makes token traffic enormous), and NOMAD-64 merely "similar" to
#: one Maxwell GPU on Hugewiki.
TOKEN_OVERHEAD_US = 50.0

#: Effective per-update stall when the per-node feature working set spills
#: out of L3 and p_u reads become random DRAM accesses (partially hidden by
#: the memory-level parallelism of a node's 4 worker cores).
RANDOM_ACCESS_STALL_US = 0.35


def nomad_epoch_seconds(
    dataset: DatasetSpec,
    nodes: int,
    cluster: ClusterSpec = NOMAD_HPC_CLUSTER,
    token_overhead_us: float = TOKEN_OVERHEAD_US,
) -> float:
    """Modelled seconds per epoch for NOMAD on ``nodes`` cluster nodes.

    Compute side: each node runs ``cores_per_node`` workers whose per-update
    cost is the CPU SSE constant; the small per-node working set fits L3
    (that is NOMAD's design goal), so no cache penalty applies.

    Network side: every column token visits every node once per epoch, so
    each node receives ``n`` token messages per epoch; message handling is
    serialized on the node's communication path. Bulk bandwidth is also
    charged but per-message overhead dominates — matching the paper's
    diagnosis that "the overall performance is bound by the slow network".
    """
    if nodes <= 0:
        raise ValueError(f"nodes must be positive, got {nodes}")
    if token_overhead_us < 0:
        raise ValueError("token_overhead_us must be non-negative")
    cpu = cluster.node_cpu
    # NOMAD's design goal is a per-node working set that fits L3. When the
    # row dimension is so large that it cannot (Hugewiki: ~400 MB of P per
    # node on 64 nodes), every update stalls on a random DRAM access to
    # p_u — ~1 us effective at the limited memory-level parallelism of 4
    # cores. This is why the paper finds NOMAD-64 only "similar" to one
    # Maxwell GPU on Hugewiki.
    p_working_set = dataset.m / nodes * dataset.k * 4
    miss_fraction = max(0.0, min(1.0, (p_working_set - cpu.l3_bytes) / max(p_working_set, 1.0)))
    update_us = cpu.update_compute_us + RANDOM_ACCESS_STALL_US * miss_fraction
    compute_rate = nodes * cluster.cores_per_node / (update_us * 1e-6)
    compute_seconds = dataset.n_train / compute_rate
    if nodes == 1:
        return compute_seconds

    token_bytes = dataset.k * 4 + 64  # q_v payload + message header
    per_node_messages = dataset.n  # each column visits each node once
    network_seconds = per_node_messages * (
        token_overhead_us * 1e-6
        + token_bytes / (cluster.network_gbs_per_node * 1e9)
    )
    # compute overlaps with communication; the longer path binds
    return max(compute_seconds, network_seconds) + min(compute_seconds, network_seconds) * 0.1


def nomad_memory_efficiency(
    dataset: DatasetSpec,
    nodes: int,
    cluster: ClusterSpec = NOMAD_HPC_CLUSTER,
) -> float:
    """Fig. 2b's metric: effective bandwidth / total memory bandwidth.

    Effective bandwidth counts the bytes the compute units process per
    second (updates/s x bytes-per-update); the denominator is the aggregate
    DRAM bandwidth of all nodes. It collapses as nodes are added because the
    network, not memory, is the binding resource.
    """
    seconds = nomad_epoch_seconds(dataset, nodes, cluster)
    updates_per_sec = dataset.n_train / seconds
    processed = SAMPLE_BYTES + 4 * dataset.k * 4
    effective = updates_per_sec * processed
    total = nodes * cluster.node_cpu.dram_bw_gbs * 1e9
    return effective / total
