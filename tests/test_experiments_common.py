"""Tests for repro.experiments.common and CLI failure paths."""

import pytest

from repro.experiments.base import REGISTRY, ExperimentResult, register
from repro.experiments.cli import main
from repro.experiments.common import (
    NUMERIC_SOLVERS,
    PLATFORM_SOLVERS,
    QUICK_DATASETS,
    dataset_problem,
    modelled_epoch_seconds,
    paper_spec_for,
    run_numeric_solver,
)


class TestDatasets:
    def test_quick_specs_cover_all_workloads(self):
        assert set(QUICK_DATASETS) == {"netflix", "yahoo", "hugewiki"}

    def test_problem_caching(self):
        a = dataset_problem("netflix", quick=True)
        b = dataset_problem("netflix", quick=True)
        assert a is b  # lru_cache

    def test_quick_shapes(self):
        prob = dataset_problem("netflix", quick=True)
        assert prob.train.nnz == QUICK_DATASETS["netflix"].n_train

    def test_paper_spec(self):
        assert paper_spec_for("netflix").n_train == 99_072_112
        with pytest.raises(KeyError):
            paper_spec_for("imdb")


class TestSolverDispatch:
    def test_all_numeric_solvers_run_one_epoch(self):
        prob = dataset_problem("netflix", quick=True)
        for solver in NUMERIC_SOLVERS:
            hist = run_numeric_solver(solver, prob, epochs=1)
            assert len(hist.test_rmse) == 1
            assert hist.test_rmse[0] < 1.5

    def test_unknown_solver(self):
        prob = dataset_problem("netflix", quick=True)
        with pytest.raises(KeyError, match="unknown numeric solver"):
            run_numeric_solver("svd++", prob, epochs=1)


class TestEpochSecondsModel:
    @pytest.mark.parametrize("display", [d for d, _, _ in PLATFORM_SOLVERS])
    def test_all_platform_solvers_priced(self, display):
        for workload in ("netflix", "yahoo", "hugewiki"):
            t = modelled_epoch_seconds(display, workload)
            assert t > 0

    def test_als_platforms_priced(self):
        assert modelled_epoch_seconds("cuMF_ALS-4", "netflix") < modelled_epoch_seconds(
            "cuMF_ALS-1", "netflix"
        )

    def test_unknown_platform(self):
        with pytest.raises(KeyError, match="unknown platform solver"):
            modelled_epoch_seconds("cuMF_SGD-Volta", "netflix")

    def test_gpu_epochs_beat_cpu_everywhere(self):
        for workload in ("netflix", "yahoo", "hugewiki"):
            assert modelled_epoch_seconds("cuMF_SGD-P", workload) < modelled_epoch_seconds(
                "LIBMF", workload
            )


class TestCLIFailurePath:
    def test_failing_experiment_sets_exit_code(self, capsys):
        def failing(quick: bool = True) -> ExperimentResult:
            result = ExperimentResult("zz-fail", "always fails", headers=("x",))
            result.add(1)
            result.check("impossible", False)
            return result

        REGISTRY["zz-fail"] = failing
        try:
            from repro.experiments import run_experiment

            result = run_experiment("zz-fail")
            assert not result.all_checks_pass
            assert main(["run", "fig15"]) == 0  # sanity: good one still passes
        finally:
            del REGISTRY["zz-fail"]
