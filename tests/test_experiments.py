"""Tests for the experiment harness: base infrastructure, registry, CLI,
and the fast (model-only) experiments end-to-end."""

import pytest

from repro.experiments import REGISTRY, ExperimentResult, get_experiment, run_experiment
from repro.experiments.base import register
from repro.experiments.cli import main


class TestExperimentResult:
    def _result(self):
        return ExperimentResult("x1", "demo", headers=("a", "b"))

    def test_add_and_column(self):
        r = self._result()
        r.add(1, 2.0)
        r.add(3, 4.0)
        assert r.column("a") == [1, 3]
        assert r.column("b") == [2.0, 4.0]

    def test_add_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            self._result().add(1)

    def test_unknown_column(self):
        with pytest.raises(KeyError):
            self._result().column("zzz")

    def test_checks(self):
        r = self._result()
        r.check("ok", True)
        r.check("bad", False)
        assert not r.all_checks_pass
        assert r.failed_checks() == ["bad"]

    def test_to_text_contains_everything(self):
        r = self._result()
        r.add(1, 2.5)
        r.notes.append("hello note")
        r.check("shape", True)
        text = r.to_text()
        assert "x1" in text and "demo" in text
        assert "hello note" in text
        assert "[PASS]: shape" in text
        assert "2.5" in text

    def test_to_csv(self):
        r = self._result()
        r.add(1, 2.0)
        csv_text = r.to_csv()
        assert csv_text.splitlines()[0] == "a,b"
        assert csv_text.splitlines()[1] == "1,2.0"

    def test_bool_formatting(self):
        r = ExperimentResult("x", "t", headers=("flag",))
        r.add(True)
        assert "yes" in r.to_text()


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "fig2", "fig4", "fig5b", "fig7", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15", "fig16", "table2", "table4",
            "table5", "roofline", "eq8", "cost",
        }
        assert expected <= set(REGISTRY)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register("fig2")(lambda quick=True: None)

    def test_get_unknown(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("fig99")


FAST_EXPERIMENTS = [
    "fig2", "fig4", "fig5b", "fig10", "fig11", "fig15",
    "roofline", "table2", "table5", "eq8",
]


class TestFastExperiments:
    """The model-only experiments run in milliseconds; execute them fully."""

    @pytest.mark.parametrize("exp_id", FAST_EXPERIMENTS)
    def test_runs_and_all_checks_pass(self, exp_id):
        result = run_experiment(exp_id, quick=True)
        assert result.experiment_id == exp_id
        assert result.rows, f"{exp_id} produced no rows"
        assert result.all_checks_pass, f"failed: {result.failed_checks()}"

    def test_fig15_exact_counts(self):
        result = run_experiment("fig15")
        rows = {(r[0], r[1]): (r[2], r[3]) for r in result.rows}
        assert rows[(2, 2)] == (8, 24)

    def test_table5_columns(self):
        result = run_experiment("table5")
        assert set(result.column("solver")) == {
            "BIDMach-M", "BIDMach-P", "cuMF_SGD-M", "cuMF_SGD-P"
        }

    @pytest.mark.resilience
    def test_resilience_experiment_checks_pass(self):
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            result = run_experiment("resilience", quick=True)
        assert result.rows
        assert result.all_checks_pass, f"failed: {result.failed_checks()}"


class TestCLI:
    def test_fault_demo(self, tmp_path, capsys):
        out = tmp_path / "fault.json"
        assert main(["fault-demo", "--seed", "0", "--out", str(out)]) == 0
        assert "epoch completed degraded" in capsys.readouterr().out
        first = out.read_bytes()
        assert main(["fault-demo", "--seed", "0", "--out", str(out)]) == 0
        assert out.read_bytes() == first  # byte-identical for the same seed

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table4" in out

    def test_run_fast(self, capsys):
        assert main(["run", "fig15"]) == 0
        assert "8" in capsys.readouterr().out

    def test_run_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "d" / "out.csv"  # the run creates d
        assert main(["run", "roofline", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        assert "device" in csv_path.read_text()

    def test_run_unknown_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])
