"""Tests for the train/plan/throughput CLI subcommands."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import main

ROOT = Path(__file__).resolve().parents[1]


class TestPlanCommand:
    def test_plan_netflix(self, capsys):
        assert main(["plan", "netflix"]) == 0
        out = capsys.readouterr().out
        assert "netflix" in out and "workers" in out

    def test_plan_multi_device(self, capsys):
        assert main(["plan", "yahoo", "--gpu", "pascal", "--devices", "2"]) == 0
        assert "2x Pascal" in capsys.readouterr().out

    def test_plan_unknown_dataset(self, capsys):
        assert main(["plan", "imdb"]) == 2
        assert "unknown data set" in capsys.readouterr().err

    def test_plan_fp32_slower(self, capsys):
        main(["plan", "netflix"])
        half = capsys.readouterr().out
        main(["plan", "netflix", "--fp32"])
        full = capsys.readouterr().out
        t_half = float(half.split(",")[-1].split("s/epoch")[0])
        t_full = float(full.split(",")[-1].split("s/epoch")[0])
        assert t_full > t_half


class TestThroughputCommand:
    def test_default(self, capsys):
        assert main(["throughput"]) == 0
        assert "M updates/s" in capsys.readouterr().out

    def test_scheme_and_workers(self, capsys):
        assert main(["throughput", "--scheme", "libmf_gpu", "--workers", "240"]) == 0
        assert "LIBMF-GPU" in capsys.readouterr().out

    def test_unknown_dataset(self, capsys):
        assert main(["throughput", "--dataset", "imdb"]) == 2


class TestTrainCommand:
    def test_unknown_dataset(self, capsys):
        assert main(["train", "imdb"]) == 2
        assert "unknown data set" in capsys.readouterr().err

    @pytest.mark.slow
    def test_train_netflix_syn_short(self, capsys, tmp_path):
        ck = tmp_path / "model"
        code = main([
            "train", "netflix-syn", "--epochs", "2", "--workers", "32",
            "--k", "8", "--save", str(ck),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "final test RMSE" in out
        assert (tmp_path / "model.npz").exists()


class TestTrainExecutors:
    def test_out_of_core_requires_procs(self, capsys):
        for executor in ("serial", "threads"):
            assert main([
                "train", "netflix-syn", "--executor", executor, "--out-of-core",
            ]) == 2
            assert "--out-of-core requires --executor procs" in (
                capsys.readouterr().err
            )

    def test_fault_plan_rejected_with_parallel_executor(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text("{}")
        assert main([
            "train", "netflix-syn", "--executor", "threads",
            "--fault-plan", str(plan),
        ]) == 2
        assert "--fault-plan" in capsys.readouterr().err

    @pytest.mark.slow
    def test_train_threads(self, capsys):
        code = main([
            "train", "netflix-syn", "--executor", "threads", "--procs", "2",
            "--epochs", "2", "--workers", "32", "--k", "8",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "final test RMSE" in out
        assert "per-worker updates" in out

    @pytest.mark.slow
    def test_train_procs_out_of_core(self, capsys, tmp_path):
        ck = tmp_path / "model"
        code = main([
            "train", "netflix-syn", "--executor", "procs", "--procs", "2",
            "--epochs", "2", "--workers", "32", "--k", "8", "--out-of-core",
            "--save", str(ck),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "blockstore:" in out
        assert "staging:" in out
        assert (tmp_path / "model.npz").exists()


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=300,
    )


#: runs the CLI on its arguments, then prints the loaded module names
_TRAIN_THEN_LIST_MODULES = """
import json, sys
from repro.experiments.cli import main
rc = main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
sys.exit(rc)
"""


def _unused_by_train(name: str) -> bool:
    """Modules ``train`` does not run: the experiments, baselines, scipy,
    the lint passes and the process executor."""
    return (
        name.split(".")[0] == "scipy"
        or name.startswith("repro.baselines")
        or (name.startswith("repro.experiments.")
            and name not in ("repro.experiments.base", "repro.experiments.cli"))
        or (name.startswith("repro.lint.") and name != "repro.lint.cli")
        or name in ("repro.parallel.procs", "multiprocessing.shared_memory")
    )


class TestFreshInterpreter:
    """In-process tests share ``sys.modules`` with every test before them,
    so import leaks and the lazy experiment registry are checked in a new
    interpreter."""

    @pytest.mark.parametrize("executor", [
        ["--executor", "serial"],
        ["--executor", "threads", "--procs", "2"],
    ], ids=["serial", "threads"])
    def test_train_imports_only_what_it_runs(self, executor):
        proc = _fresh_python(
            "-c", _TRAIN_THEN_LIST_MODULES,
            "train", "netflix-syn", "--epochs", "1", *executor,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert "repro.data.synthetic" in loaded
        assert [name for name in loaded if _unused_by_train(name)] == []

    def test_list_loads_every_experiment(self):
        proc = _fresh_python("-m", "repro.experiments.cli", "list")
        assert proc.returncode == 0, proc.stderr
        ids = [line.split()[0] for line in proc.stdout.splitlines()]
        assert ids == [
            "cost", "eq8", "fig10", "fig11", "fig12", "fig13", "fig14",
            "fig15", "fig16", "fig2", "fig4", "fig5b", "fig7", "fig9",
            "resilience", "roofline", "table2", "table4", "table5",
        ]

    def test_run_loads_the_registry(self):
        proc = _fresh_python("-m", "repro.experiments.cli", "run", "fig15")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "8 of 24 orders" in proc.stdout
