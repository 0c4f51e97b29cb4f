"""Synthetic data set generators mirroring the paper's Table 2 workloads.

The real Netflix / Yahoo!Music / Hugewiki sets are 99M-3.07B samples and not
redistributable; this module generates **low-rank-plus-noise** problems with
the same aspect-ratio structure at laptop scale. Because the ground truth is
a genuine rank-``k_true`` factorization, test RMSE has a meaningful floor
(the noise level) and convergence curves behave like the paper's.

Two registries are exposed:

* :data:`PAPER_DATASETS` — the exact Table 2 shape parameters, consumed by the
  :mod:`repro.gpusim` performance model (throughput experiments use the
  paper-scale ``N``, ``m``, ``n``, ``k``).
* :data:`SCALED_DATASETS` — the laptop-scale equivalents used by the numeric
  convergence experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.data.container import RatingMatrix
from repro.data.split import train_test_split

__all__ = [
    "DatasetSpec",
    "SyntheticProblem",
    "PAPER_DATASETS",
    "SCALED_DATASETS",
    "dataset_registry",
    "make_synthetic",
    "scaled_dataset",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Shape parameters of an MF workload (one column of the paper's Table 2)."""

    name: str
    m: int
    n: int
    k: int
    n_train: int
    n_test: int
    #: RMSE target used by Table 4 ("reasonable RMSE" per data set).
    target_rmse: float = 0.0
    #: λ, α, β from Table 3 (regularization and learning-rate schedule).
    lam: float = 0.05
    alpha: float = 0.08
    beta: float = 0.3

    @property
    def n_samples(self) -> int:
        return self.n_train + self.n_test

    @property
    def density(self) -> float:
        return self.n_samples / (self.m * self.n)

    @property
    def coo_bytes(self) -> int:
        """COO storage of the train set (12 bytes/sample)."""
        return self.n_train * 12

    def feature_bytes(self, half_precision: bool = False) -> int:
        """Storage of P (m x k) + Q (k x n) feature matrices."""
        elem = 2 if half_precision else 4
        return (self.m + self.n) * self.k * elem


#: Paper-scale workloads (Table 2) with Table 3 hyper-parameters and the
#: Table 4 convergence targets (0.92 / 22.0 / 0.52).
PAPER_DATASETS: Mapping[str, DatasetSpec] = {
    "netflix": DatasetSpec(
        name="netflix",
        m=480_190,
        n=17_771,
        k=128,
        n_train=99_072_112,
        n_test=1_408_395,
        target_rmse=0.92,
        lam=0.05,
        alpha=0.08,
        beta=0.3,
    ),
    "yahoo": DatasetSpec(
        name="yahoo",
        m=1_000_990,
        n=624_961,
        k=128,
        n_train=252_800_275,
        n_test=4_003_960,
        target_rmse=22.0,
        lam=1.0,
        alpha=0.08,
        beta=0.2,
    ),
    "hugewiki": DatasetSpec(
        name="hugewiki",
        m=50_082_604,
        n=39_781,
        k=128,
        n_train=3_069_817_980,
        n_test=31_327_899,
        target_rmse=0.52,
        lam=0.03,
        alpha=0.08,
        beta=0.3,
    ),
}

#: Laptop-scale equivalents preserving the aspect-ratio ordering and the
#: "n is small" property that drives the paper's multi-GPU convergence limits
#: (§7.5-7.7). The Eq. 9 decay β is retuned to 0.05: Table 3's β=0.2-0.3 is
#: calibrated for 99M-3B-sample epochs, and at laptop scale it freezes the
#: learning rate long before convergence.
SCALED_DATASETS: Mapping[str, DatasetSpec] = {
    "netflix-syn": DatasetSpec(
        name="netflix-syn",
        m=4_800,
        n=1_780,
        k=32,
        n_train=400_000,
        n_test=20_000,
        target_rmse=0.60,
        lam=0.05,
        alpha=0.08,
        beta=0.05,
    ),
    "yahoo-syn": DatasetSpec(
        name="yahoo-syn",
        m=5_000,
        n=3_120,
        k=32,
        n_train=500_000,
        n_test=25_000,
        target_rmse=0.60,
        lam=0.05,
        alpha=0.08,
        beta=0.05,
    ),
    "hugewiki-syn": DatasetSpec(
        name="hugewiki-syn",
        m=50_000,
        n=2_560,
        k=32,
        n_train=1_500_000,
        n_test=50_000,
        target_rmse=0.60,
        lam=0.03,
        alpha=0.08,
        beta=0.05,
    ),
}


def dataset_registry() -> dict[str, DatasetSpec]:
    """All known specs, paper-scale and scaled, keyed by name."""
    reg: dict[str, DatasetSpec] = {}
    reg.update(PAPER_DATASETS)
    reg.update(SCALED_DATASETS)
    return reg


@dataclass
class SyntheticProblem:
    """A generated MF problem: train/test split plus the ground truth."""

    spec: DatasetSpec
    train: RatingMatrix
    test: RatingMatrix
    p_true: np.ndarray
    q_true: np.ndarray
    noise_sigma: float

    @property
    def rmse_floor(self) -> float:
        """Best achievable test RMSE ≈ the injected noise level."""
        return self.noise_sigma


#: samples per block of the clean-rating gather in :func:`make_synthetic`
_CLEAN_BLOCK = 1 << 16


def _sample_coordinates(
    rng: np.random.Generator, m: int, n: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` unique (row, col) coordinates uniformly without replacement.

    Rejection-free for the sparse regimes we target: sample 64-bit flat keys,
    unique them, and top up until enough. Density in all registered specs is
    well below 10%, so a couple of rounds suffice.

    The dedup sorts and drops repeats by hand. It returns exactly
    ``np.unique``'s sorted keys, but numpy >= 2.3 finds integer uniques
    through a hash table, which at these sizes is some 30x slower than one
    sort.
    """
    total = m * n
    if count > total:
        raise ValueError(f"cannot draw {count} unique cells from a {m}x{n} grid")
    keys = np.empty(0, dtype=np.int64)
    want = count
    while len(keys) < count:
        draw = rng.integers(0, total, size=int(want * 1.2) + 16, dtype=np.int64)
        merged = np.concatenate([keys, draw])
        merged.sort()
        first = np.empty(len(merged), dtype=bool)
        first[:1] = True
        np.not_equal(merged[1:], merged[:-1], out=first[1:])
        keys = merged[first]
        want = count - len(keys)
    keys = rng.permutation(keys)[:count]
    return (keys // n).astype(np.int32), (keys % n).astype(np.int32)


def make_synthetic(
    spec: DatasetSpec,
    seed: int = 0,
    k_true: int | None = None,
    noise_sigma: float = 0.5,
    rating_scale: float = 1.0,
) -> SyntheticProblem:
    """Generate a low-rank-plus-noise problem matching ``spec``'s shape.

    ``R[u, v] = p_true[u] . q_true[v] + eps``, with ``eps ~ N(0, noise_sigma)``.
    Factor entries are scaled so the clean signal has variance
    ``rating_scale² / k_true`` — O(1) magnitudes that keep the paper's
    Table 3 learning rates in a sane regime.
    """
    rng = np.random.default_rng(seed)
    k_true = k_true if k_true is not None else max(4, spec.k // 4)

    scale = rating_scale / np.sqrt(k_true)
    p_true = rng.normal(0.0, scale, size=(spec.m, k_true)).astype(np.float32)
    q_true = rng.normal(0.0, scale, size=(spec.n, k_true)).astype(np.float32)

    rows, cols = _sample_coordinates(rng, spec.m, spec.n, spec.n_samples)
    # p_true[rows] . q_true[cols], gathered a block at a time: two whole
    # (nnz, k_true) gathers were the launch's largest buffers (netflix-syn:
    # 13.4 MB each). take() gathers the same rows as fancy indexing, in
    # about a third of the time.
    clean = np.empty(len(rows), np.float32)
    for lo in range(0, len(rows), _CLEAN_BLOCK):
        hi = lo + _CLEAN_BLOCK
        np.einsum("ij,ij->i", p_true.take(rows[lo:hi], axis=0),
                  q_true.take(cols[lo:hi], axis=0), out=clean[lo:hi])
    vals = (clean + rng.normal(0.0, noise_sigma, size=len(rows))).astype(np.float32)

    full = RatingMatrix(rows, cols, vals, spec.m, spec.n, name=spec.name)
    train, test = train_test_split(full, test_fraction=spec.n_test / spec.n_samples, rng=rng)
    train.name = f"{spec.name}-train"
    test.name = f"{spec.name}-test"
    return SyntheticProblem(
        spec=spec,
        train=train,
        test=test,
        p_true=p_true,
        q_true=q_true,
        noise_sigma=noise_sigma,
    )


def scaled_dataset(name: str, seed: int = 0, **kwargs) -> SyntheticProblem:
    """Generate one of the registered laptop-scale data sets by name."""
    if name not in SCALED_DATASETS:
        raise KeyError(
            f"unknown scaled data set {name!r}; choose from {sorted(SCALED_DATASETS)}"
        )
    return make_synthetic(SCALED_DATASETS[name], seed=seed, **kwargs)
