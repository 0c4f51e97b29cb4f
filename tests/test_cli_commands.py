"""Tests for the train/plan/throughput CLI subcommands."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import _BLAS_THREAD_VARIABLES, main

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

    @pytest.mark.parametrize("argv, problem", [
        (["--k", "0"], "k must be positive, got 0"),
        (["--executor", "threads", "--procs", "100"],
         "n_threads=100 exceeds the plan's 64 worker lanes"),
        (["--scheme", "wavefront", "--executor", "threads", "--procs", "65"],
         "n_threads=65 exceeds the plan's 64 worker lanes"),
        (["--workers", "0"], "workers must be positive, got 0"),
        (["--epochs", "0"], "epochs must be positive, got 0"),
    ], ids=["k0", "procs-over-workers", "wavefront-procs-over-workers",
            "workers0", "epochs0"])
    def test_out_of_range_option_exits_2(self, capsys, argv, problem):
        """Rejected before ``fit``, with a message instead of a traceback
        or a silent default."""
        assert main(["train", "netflix-syn", *argv]) == 2
        err = capsys.readouterr().err
        assert problem in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value, needs", [
        ("--san-report", "r.json", "--sanitize"),
        ("--checkpoint-dir", "ckpt", "--fault-plan"),
    ], ids=["san-report", "checkpoint-dir"])
    def test_lone_qualifying_flag_exits_2(self, capsys, monkeypatch,
                                          tmp_path, flag, value, needs):
        """A flag that only qualifies another would do nothing alone, so it
        exits 2 before any data is generated, naming the flag it needs,
        and writes nothing."""
        import repro.data.synthetic as synthetic

        def make_synthetic(*args, **kwargs):
            pytest.fail(f"{flag} alone generated the data set")

        monkeypatch.setattr(synthetic, "make_synthetic", make_synthetic)
        target = tmp_path / value
        assert main(["train", "netflix-syn", "--epochs", "1", flag,
                     str(target)]) == 2
        assert f"{flag} needs {needs}" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("procs", ["65", "0"])
    def test_out_of_core_procs_rejected_before_any_block(self, capsys,
                                                         monkeypatch, procs):
        """Out of core the block grid is sized by the thread count, so an
        out-of-range ``--procs`` exits 2 before the store is created."""
        from repro.data.blockstore import BlockStore

        def create(*args, **kwargs):
            pytest.fail(f"BlockStore.create ran for --procs {procs}")

        monkeypatch.setattr(BlockStore, "create", create)
        code = main(["train", "netflix-syn", "--out-of-core", "--procs", procs])
        err = capsys.readouterr().err
        assert code == 2
        assert f"--procs {procs} must lie in [1, --workers 64]" in err
        assert "Traceback" not in err


class TestTrainExecutors:
    @pytest.mark.slow
    def test_serial_out_of_core_streams_on_one_thread(self, capsys):
        """``--executor serial --out-of-core`` is the one-thread streaming
        executor: one worker replays every block."""
        assert main([
            "train", "netflix-syn", "--executor", "serial", "--out-of-core",
            "--epochs", "2", "--workers", "32", "--k", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "blockstore: 2x2 grid" in out
        assert "staging: 8 blocks" in out
        assert "per-worker updates (last epoch): [400000]" in out

    @pytest.mark.slow
    def test_fault_plan_runs_on_threads(self, capsys, tmp_path):
        """``--fault-plan`` guards a racing run like a serial one."""
        plan = tmp_path / "plan.json"
        plan.write_text("{}")
        assert main([
            "train", "netflix-syn", "--executor", "threads", "--procs", "2",
            "--epochs", "3", "--fault-plan", str(plan),
        ]) == 0
        out = capsys.readouterr().out
        assert "resilience: checkpoints_saved=4, epochs_completed=3" in out
        assert "per-worker updates" in out

    @pytest.mark.slow
    @pytest.mark.parametrize("executor", [
        ["--executor", "serial"],
        ["--executor", "threads", "--procs", "2"],
    ], ids=["serial", "threads"])
    def test_default_epochs_fault_plan_never_rolls_back(self, capsys,
                                                        tmp_path, executor):
        """An empty plan over the default 20 epochs: the late, slight rise
        of test RMSE (mild overfitting at a decayed rate) is a stall, not a
        divergence, so a healthy run finishes with no rollback."""
        plan = tmp_path / "plan.json"
        plan.write_text("{}")
        assert main([
            "train", "netflix-syn", *executor, "--fault-plan", str(plan),
        ]) == 0
        out = capsys.readouterr().out
        assert "epochs_completed=20" in out
        assert "(rollbacks 0, lr scale 1)" in out

    @pytest.mark.slow
    def test_threads_half_saves_fp16_factors(self, capsys, tmp_path):
        import numpy as np

        ck = tmp_path / "model.npz"
        assert main([
            "train", "netflix-syn", "--executor", "threads", "--procs", "2",
            "--epochs", "2", "--half", "--save", str(ck),
        ]) == 0
        captured = capsys.readouterr()
        assert "ignored" not in captured.err
        with np.load(ck) as z:
            assert z["p"].dtype == z["q"].dtype == np.float16

    @pytest.mark.parametrize("argv, runs", [
        (["--executor", "threads", "--procs", "2", "--scheme", "wavefront"],
         True),
        (["--executor", "threads", "--scheme", "multi_device"], False),
        (["--out-of-core", "--scheme", "wavefront"], False),
    ], ids=["threads-wavefront", "threads-multi_device", "auto-ooc-wavefront"])
    def test_threads_reject_other_schemes(self, capsys, argv, runs):
        """Threads run batch_hogwild and wavefront; multi_device on threads
        and wavefront out of core exit 2, naming the scheme."""
        code = main(["train", "netflix-syn", "--epochs", "1", *argv])
        if runs:
            assert code == 0
            assert "final test RMSE" in capsys.readouterr().out
            return
        assert code == 2
        scheme = argv[argv.index("--scheme") + 1]
        assert repr(scheme) in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--executor", "threads", "--procs", "2"],
        ["--scheme", "wavefront"],
    ], ids=["threads", "wavefront"])
    def test_fault_plan_needs_multi_device(self, capsys, tmp_path, argv):
        """Only the multi-device simulator has devices and transfers to
        fail, so another executor rejects a kill plan instead of training
        as if it had applied it."""
        from repro.resilience.faults import FaultPlan

        plan = tmp_path / "kill.json"
        FaultPlan.kill_one(1, 1).save(plan)
        assert main(["train", "netflix-syn", "--epochs", "1", *argv,
                     "--fault-plan", str(plan)]) == 2
        captured = capsys.readouterr()
        assert "cannot apply a fault plan" in captured.err
        assert "final test RMSE" not in captured.out

    @pytest.mark.parametrize("executor", ["auto", "serial"])
    @pytest.mark.parametrize("scheme", ["wavefront", "multi_device"])
    def test_every_scheme_keeps_its_backend(self, capsys, executor, scheme):
        """Every scheme runs the backend's kernels, so the block schemes
        report and keep what ``--backend`` asks for; auto keeps them on
        one thread and says why."""
        from types import SimpleNamespace

        from repro.experiments.cli import _resolve_executor

        args = SimpleNamespace(executor=executor, scheme=scheme, backend="c",
                               k=None, procs=None, out_of_core=False)
        problem = SimpleNamespace(train=SimpleNamespace(nnz=400_000))
        _resolve_executor(args, SimpleNamespace(k=32), problem)
        assert args.backend == "c"
        out = capsys.readouterr().out
        assert "backend=c" in out
        if executor == "auto":
            assert args.executor == "serial"
            assert f"--scheme {scheme}: " in out

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
    def test_train_threads_out_of_core(self, capsys, tmp_path):
        ck = tmp_path / "model"
        code = main([
            "train", "netflix-syn", "--executor", "threads", "--procs", "2",
            "--epochs", "2", "--workers", "32", "--k", "8", "--out-of-core",
            "--save", str(ck),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "blockstore:" in out
        assert "staging:" in out
        assert (tmp_path / "model.npz").exists()


def _fresh_python(*args: str, **env_vars: str | None
                  ) -> subprocess.CompletedProcess:
    """Run a new interpreter on ``args``; ``env_vars`` set environment
    variables, or unset them where the value is None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    for name, value in env_vars.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
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


#: runs the CLI on its arguments, importing numpy first if the first
#: argument is ``numpy-first``, then prints the process's thread count
#: and its OpenBLAS thread setting
_TRAIN_THEN_COUNT_THREADS = """
import json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
from repro.experiments.cli import main
rc = main(sys.argv[2:])
print(json.dumps([len(os.listdir("/proc/self/task")),
                  os.environ.get("OPENBLAS_NUM_THREADS")]))
sys.exit(rc)
"""


def _blas_starts_a_pool() -> bool:
    """Whether loading numpy's BLAS here starts worker threads to count:
    Linux (``/proc/self/task``), OpenBLAS, and two or more usable cores
    (OpenBLAS starts one worker fewer than the cores it may run on)."""
    if sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2:
        return False
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas.get("name", "").lower()


#: modules a serial, fp16 or in-core threads ``train`` never runs: the
#: sanitizer's analyses, the collector, the perf ledger (and its
#: ``socket``), the block store, the other schemes, the ranking metrics
#: and ``csv`` (the experiment results' writer)
_NEVER_LOADED_BY_TRAIN = {
    *(f"repro.san.{m}" for m in ("races", "lifecycle", "numeric", "report")),
    *(f"repro.obs.{m}" for m in ("collector", "ledger", "registry")),
    *(f"repro.data.{m}" for m in ("blockstore", "io", "preprocess", "shuffle")),
    *(f"repro.core.{m}" for m in ("wavefront", "multi_gpu", "adagrad",
                                  "partition")),
    *(f"repro.sched.{m}" for m in ("table", "ordering", "column_lock")),
    "repro.metrics.ranking",
    "socket",
    "csv",
}


def _unused_by_train(name: str) -> bool:
    """Modules ``train`` does not run: the experiments, baselines, scipy,
    the lint passes, multiprocessing and :data:`_NEVER_LOADED_BY_TRAIN`."""
    return (
        name.split(".")[0] == "scipy"
        or name.startswith("repro.baselines")
        or (name.startswith("repro.experiments.")
            and name != "repro.experiments.cli")
        or (name.startswith("repro.lint.") and name != "repro.lint.cli")
        or name.split(".")[0] == "multiprocessing"
        or name in _NEVER_LOADED_BY_TRAIN
    )


class TestFreshInterpreter:
    """In-process tests share ``sys.modules`` with every test before them,
    so import leaks and the lazy experiment registry are checked in a new
    interpreter."""

    @pytest.mark.parametrize("executor", [
        ["--executor", "serial"],
        ["--executor", "serial", "--half"],
        ["--executor", "threads", "--procs", "2"],
    ], ids=["serial", "half", "threads"])
    def test_train_imports_only_what_it_runs(self, executor):
        proc = _fresh_python(
            "-c", _TRAIN_THEN_LIST_MODULES,
            "train", "netflix-syn", "--epochs", "1", *executor,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert "repro.data.synthetic" in loaded
        assert [name for name in loaded if _unused_by_train(name)] == []
        # the estimator builds the thread executor only for threads
        threads = "repro.parallel.threads" in loaded
        assert threads == ("threads" in executor)

    def test_wavefront_train_loads_no_thread_executor(self):
        """Wavefront threads start through the dispatch module alone, so
        a wavefront launch loads neither the batch-Hogwild! thread
        executor nor its profiler and tracer."""
        proc = _fresh_python(
            "-c", _TRAIN_THEN_LIST_MODULES,
            "train", "netflix-syn", "--epochs", "1", "--scheme", "wavefront",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        loaded = set(json.loads(proc.stdout.splitlines()[-1]))
        assert {"repro.core.wavefront", "repro.parallel.dispatch"} <= loaded
        assert not loaded & {"repro.parallel.threads", "repro.obs.profiler",
                             "repro.obs.tracer"}

    def test_metrics_rmse_stays_the_function(self):
        """``rmse`` is both a function and a submodule of
        ``repro.metrics``: importing the submodule must not rebind the
        package's name to the module."""
        proc = _fresh_python("-c", (
            "import repro.metrics.rmse\n"
            "from repro.metrics import rmse\n"
            "import repro\n"
            "print(callable(rmse), rmse is repro.rmse)"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True"]

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
        """``run`` resolves its id as ``trace`` does (``fig015`` is fig15)."""
        proc = _fresh_python("-m", "repro.experiments.cli", "run", "fig015")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "8 of 24 orders" in proc.stdout

    def test_run_unknown_id_exits_2_with_the_ids(self):
        proc = _fresh_python("-m", "repro.experiments.cli", "run", "fig99")
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "unknown experiment 'fig99'" in proc.stderr
        assert "'fig15', 'fig16'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_cli_module_loads_no_numpy(self):
        """``main`` sets the BLAS thread count before any command imports
        numpy, which works only while importing the CLI module (and the
        packages ``python -m`` imports before it) loads no numpy."""
        proc = _fresh_python("-c", (
            "import sys, repro.experiments.cli\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'numpy'])"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]

    @pytest.mark.skipif(not _blas_starts_a_pool(),
                        reason="needs Linux, OpenBLAS and two usable cores")
    @pytest.mark.parametrize("first, env, threads, setting", [
        ("main-first", {}, 1, "1"),
        # an in-process caller that loaded numpy already keeps its pool,
        # and main sets nothing its child processes would inherit
        ("numpy-first", {}, None, None),
        ("main-first", {"OMP_NUM_THREADS": "2"}, 2, None),
    ], ids=["launch", "numpy-loaded-first", "user-setting-wins"])
    def test_launch_starts_no_blas_pool(self, first, env, threads, setting):
        """A launch asks OpenBLAS for one thread, so loading numpy starts
        no worker pool, unless the user set a thread count or numpy was
        loaded before ``main`` ran."""
        unset = dict.fromkeys(_BLAS_THREAD_VARIABLES)
        proc = _fresh_python(
            "-c", _TRAIN_THEN_COUNT_THREADS, first,
            "train", "netflix-syn", "--epochs", "1", "--executor", "serial",
            **{**unset, **env},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        n_threads, openblas = json.loads(proc.stdout.splitlines()[-1])
        assert openblas == setting
        if threads is None:
            assert n_threads > 1  # the pool a launch started before
        else:
            assert n_threads == threads
