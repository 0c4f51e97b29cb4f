"""Unit tests for repro.data.synthetic."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.synthetic import (
    PAPER_DATASETS,
    SCALED_DATASETS,
    DatasetSpec,
    _sample_coordinates,
    dataset_registry,
    make_synthetic,
    scaled_dataset,
)
from repro.metrics.rmse import rmse


class TestSpecs:
    def test_paper_table2_values(self):
        nf = PAPER_DATASETS["netflix"]
        assert (nf.m, nf.n, nf.k) == (480_190, 17_771, 128)
        assert nf.n_train == 99_072_112
        assert nf.n_test == 1_408_395
        ya = PAPER_DATASETS["yahoo"]
        assert (ya.m, ya.n) == (1_000_990, 624_961)
        hw = PAPER_DATASETS["hugewiki"]
        assert hw.n_train == 3_069_817_980

    def test_table3_hyperparameters(self):
        assert PAPER_DATASETS["netflix"].lam == 0.05
        assert PAPER_DATASETS["yahoo"].lam == 1.0
        assert PAPER_DATASETS["hugewiki"].lam == 0.03
        assert all(s.alpha == 0.08 for s in PAPER_DATASETS.values())
        assert PAPER_DATASETS["yahoo"].beta == 0.2

    def test_table4_targets(self):
        assert PAPER_DATASETS["netflix"].target_rmse == 0.92
        assert PAPER_DATASETS["yahoo"].target_rmse == 22.0
        assert PAPER_DATASETS["hugewiki"].target_rmse == 0.52

    def test_density_and_bytes(self):
        spec = DatasetSpec("x", m=100, n=50, k=8, n_train=400, n_test=100)
        assert spec.n_samples == 500
        assert spec.density == pytest.approx(0.1)
        assert spec.coo_bytes == 400 * 12
        assert spec.feature_bytes() == 150 * 8 * 4
        assert spec.feature_bytes(half_precision=True) == 150 * 8 * 2

    def test_registry_contains_both_scales(self):
        reg = dataset_registry()
        assert "netflix" in reg and "netflix-syn" in reg
        assert len(reg) == len(PAPER_DATASETS) + len(SCALED_DATASETS)


class TestGeneration:
    def test_shapes_match_spec(self, tiny_spec, tiny_problem):
        assert tiny_problem.train.nnz == tiny_spec.n_train
        assert tiny_problem.test.nnz == tiny_spec.n_test
        assert tiny_problem.train.shape == (tiny_spec.m, tiny_spec.n)

    def test_train_test_disjoint(self, tiny_problem):
        assert tiny_problem.train.validate_disjoint(tiny_problem.test)

    def test_coordinates_unique(self, tiny_problem):
        keys = (
            tiny_problem.train.rows.astype(np.int64) * tiny_problem.train.n_cols
            + tiny_problem.train.cols
        )
        assert len(np.unique(keys)) == len(keys)

    def test_deterministic_by_seed(self, tiny_spec):
        a = make_synthetic(tiny_spec, seed=5)
        b = make_synthetic(tiny_spec, seed=5)
        assert np.array_equal(a.train.vals, b.train.vals)
        assert np.array_equal(a.train.rows, b.train.rows)

    def test_different_seeds_differ(self, tiny_spec):
        a = make_synthetic(tiny_spec, seed=5)
        b = make_synthetic(tiny_spec, seed=6)
        assert not np.array_equal(a.train.vals, b.train.vals)

    def test_ground_truth_achieves_noise_floor(self, tiny_problem):
        """Scoring the true factors reaches RMSE ~ noise_sigma on test data."""
        got = rmse(tiny_problem.p_true, tiny_problem.q_true, tiny_problem.test)
        assert got == pytest.approx(tiny_problem.noise_sigma, rel=0.1)
        assert tiny_problem.rmse_floor == tiny_problem.noise_sigma

    def test_rating_variance_matches_model(self, tiny_problem):
        """Signal variance is 1/k_true by construction, plus the noise."""
        var = float(np.var(tiny_problem.train.vals))
        k_true = tiny_problem.p_true.shape[1]
        expected = 1.0 / k_true + tiny_problem.noise_sigma**2
        assert var == pytest.approx(expected, rel=0.25)

    def test_custom_k_true_and_noise(self, tiny_spec):
        prob = make_synthetic(tiny_spec, seed=0, k_true=2, noise_sigma=0.1)
        assert prob.p_true.shape[1] == 2
        assert rmse(prob.p_true, prob.q_true, prob.test) == pytest.approx(0.1, rel=0.15)

    def test_scaled_dataset_by_name(self):
        prob = scaled_dataset("netflix-syn", seed=1)
        assert prob.spec.name == "netflix-syn"
        assert prob.train.nnz == SCALED_DATASETS["netflix-syn"].n_train

    def test_unknown_scaled_name(self):
        with pytest.raises(KeyError, match="unknown scaled data set"):
            scaled_dataset("nope")

    def test_overfull_grid_rejected(self):
        spec = DatasetSpec("bad", m=10, n=10, k=4, n_train=95, n_test=10)
        with pytest.raises(ValueError, match="unique cells"):
            make_synthetic(spec, seed=0)


def _whole_array_make_synthetic(spec, seed, noise_sigma=0.5):
    """The reference: ``make_synthetic`` with whole-array draws and copies.

    It concatenates, sorts and dedupes the coordinate draws, permutes the
    kept keys with ``rng.permutation``, draws all the noise in one
    ``rng.normal`` call, and splits with fancy indexing. Returns
    ``(train, test, p_true, q_true)`` with each part a (rows, cols, vals)
    triple.
    """
    rng = np.random.default_rng(seed)
    k_true = max(4, spec.k // 4)
    scale = 1.0 / np.sqrt(k_true)
    p_true = rng.normal(0.0, scale, size=(spec.m, k_true)).astype(np.float32)
    q_true = rng.normal(0.0, scale, size=(spec.n, k_true)).astype(np.float32)
    count = spec.n_samples
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < count:
        draw = rng.integers(0, spec.m * spec.n,
                            size=int((count - len(keys)) * 1.2) + 16,
                            dtype=np.int64)
        merged = np.sort(np.concatenate([keys, draw]))
        keys = merged[np.r_[True, merged[1:] != merged[:-1]]]
    keys = rng.permutation(keys)[:count]
    rows = (keys // spec.n).astype(np.int32)
    cols = (keys % spec.n).astype(np.int32)
    clean = np.einsum("ij,ij->i", p_true[rows], q_true[cols])
    vals = (clean + rng.normal(0.0, noise_sigma, size=count)).astype(np.float32)
    perm = rng.permutation(count)
    n_test = int(round(count * (spec.n_test / spec.n_samples)))
    test, train = perm[:n_test], perm[n_test:]
    return ((rows[train], cols[train], vals[train]),
            (rows[test], cols[test], vals[test]), p_true, q_true)


class TestGeneratorMatchesWholeArrayReference:
    """``make_synthetic`` draws, blocks and gathers without whole-array
    copies, and must return the reference's bytes for every scaled set
    (about 2.5 s for the nine cases)."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("name", list(SCALED_DATASETS))
    def test_same_bytes(self, name, seed):
        got = make_synthetic(SCALED_DATASETS[name], seed=seed)
        train, test, p_true, q_true = _whole_array_make_synthetic(
            SCALED_DATASETS[name], seed)
        pairs = [(got.p_true, p_true), (got.q_true, q_true)]
        for part, ref in ((got.train, train), (got.test, test)):
            pairs += zip((part.rows, part.cols, part.vals), ref)
        for ours, want in pairs:
            assert ours.dtype == want.dtype and ours.shape == want.shape
            assert ours.tobytes() == want.tobytes()


def _np_unique_sample_coordinates(rng, m, n, count):
    """The reference: ``_sample_coordinates`` as it was with ``np.unique``."""
    total = m * n
    if count > total:
        raise ValueError(f"cannot draw {count} unique cells from a {m}x{n} grid")
    keys = np.empty(0, dtype=np.int64)
    want = count
    while len(keys) < count:
        draw = rng.integers(0, total, size=int(want * 1.2) + 16, dtype=np.int64)
        keys = np.unique(np.concatenate([keys, draw]))
        want = count - len(keys)
    keys = rng.permutation(keys)[:count]
    return (keys // n).astype(np.int32), (keys % n).astype(np.int32)


@st.composite
def _draws(draw):
    """(m, n, count, seed), with the empty and the completely full grid."""
    m = draw(st.integers(1, 60))
    n = draw(st.integers(1, 60))
    count = draw(st.one_of(st.just(0), st.just(m * n), st.integers(0, m * n)))
    return m, n, count, draw(st.integers(0, 2**32 - 1))


class TestSampleCoordinates:
    @settings(max_examples=150, deadline=None)
    @given(_draws())
    @example((4_800, 1_780, 420_000, 1))  # netflix-syn's draw
    def test_matches_np_unique_reference(self, case):
        m, n, count, seed = case
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _sample_coordinates(rng, m, n, count)
        want = _np_unique_sample_coordinates(ref_rng, m, n, count)
        for ours, ref in zip(got, want):
            assert ours.dtype == ref.dtype
            np.testing.assert_array_equal(ours, ref)
        # the same draws were consumed: the generators continue alike
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)

    def test_more_cells_than_the_grid_rejected(self):
        with pytest.raises(ValueError, match="unique cells"):
            _sample_coordinates(np.random.default_rng(0), 3, 4, 13)
