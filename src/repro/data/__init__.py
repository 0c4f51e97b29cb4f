"""Data substrate: sparse rating containers, synthetic data set generators,
train/test splitting, and the pre-/post-processing shuffles of Algorithm 1.

The paper evaluates on Netflix, Yahoo!Music, and Hugewiki (Table 2). Those
data sets are not redistributable, so :mod:`repro.data.synthetic` generates
low-rank-plus-noise problems with the same aspect ratios at laptop scale,
and :data:`repro.data.synthetic.PAPER_DATASETS` retains the paper-scale shape
parameters for the performance model.
"""

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "container": ("RatingMatrix",),
    "blockstore": ("BlockStore", "BlockPrefetcher"),
    "io": ("load_coo", "save_coo"),
    "preprocess": ("ScaleNormalizer", "BiasModel", "remove_biases",
                   "filter_min_counts", "compact_ids"),
    "shuffle": ("random_shuffle", "model_shuffle"),
    "split": ("train_test_split",),
    "synthetic": ("DatasetSpec", "SyntheticProblem", "PAPER_DATASETS",
                  "SCALED_DATASETS", "dataset_registry", "make_synthetic",
                  "scaled_dataset"),
})
