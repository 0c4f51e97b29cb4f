"""Per-pass behaviour on fixture snippets, suppression semantics, the
baseline workflow, and the CLI exit-code contract."""

import json
from pathlib import Path

import pytest

from repro.experiments.cli import main as cumf_main
from repro.lint import load_baseline, run_lint, write_baseline
from repro.lint.cli import main as lint_main

pytestmark = pytest.mark.lint

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

BAD_FIXTURES = {
    "bad_hotpath.py": "hotpath-alloc",
    "bad_dtype.py": "dtype-fp64",
    "bad_rng.py": "rng-legacy",
    "bad_metric.py": "metric-name",
    "bad_races.py": "race-shared-write",
    "bad_races_helper.py": "race-shared-write",
    "bad_shm.py": "shm-lifecycle",
    "bad_barrier.py": "barrier-pairing",
    "bad_stale.py": "suppression-stale",
}
CLEAN_FIXTURES = [
    "clean_hotpath.py",
    "clean_dtype.py",
    "clean_rng.py",
    "clean_metric.py",
    "clean_races.py",
    "clean_shm.py",
    "clean_barrier.py",
    "clean_stale.py",
]


# ---------------------------------------------------------------------------
# every bad fixture is flagged by its pass; every clean fixture is clean
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name,rule", sorted(BAD_FIXTURES.items()))
def test_bad_fixture_is_flagged(name, rule):
    report = run_lint([FIXTURES / name])
    assert any(f.rule == rule for f in report.findings), (
        f"{name} should trip {rule}; got "
        + "; ".join(f.format() for f in report.findings)
    )
    assert report.exit_code == 1


@pytest.mark.parametrize("name", CLEAN_FIXTURES)
def test_clean_fixture_is_clean(name):
    report = run_lint([FIXTURES / name])
    assert not report.findings, "\n".join(f.format() for f in report.findings)
    assert report.exit_code == 0


def test_bad_hotpath_flags_all_three_shapes():
    report = run_lint([FIXTURES / "bad_hotpath.py"])
    messages = " ".join(
        f.message for f in report.findings if f.rule == "hotpath-alloc"
    )
    assert "fancy-index load" in messages
    assert ".astype" in messages
    assert "np.zeros" in messages


def test_bad_dtype_flags_hot_only_hazards():
    report = run_lint([FIXTURES / "bad_dtype.py"])
    messages = [f.message for f in report.findings if f.rule == "dtype-fp64"]
    assert any("without an explicit dtype" in m for m in messages)
    assert any("float literal" in m for m in messages)
    assert any("explicit float64" in m for m in messages)


def test_clean_dtype_counts_the_tagged_accumulator():
    report = run_lint([FIXTURES / "clean_dtype.py"])
    assert any(f.rule == "dtype-fp64" for f in report.suppressed)


def test_bad_races_flags_write_call_and_global():
    report = run_lint([FIXTURES / "bad_races.py"])
    messages = " ".join(
        f.message for f in report.findings if f.rule == "race-shared-write"
    )
    assert "writes shared state" in messages
    assert "mutating" in messages
    assert "global" in messages


def test_worker_run_in_a_context_copy_is_audited(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "import contextvars\n"
        "import threading\n"
        "\n"
        "def run(n):\n"
        "    results = []\n"
        "\n"
        "    def work(tid):\n"
        "        results.append(tid)\n"
        "\n"
        "    threads = [threading.Thread(target=contextvars.copy_context().run,\n"
        "                                args=(work, i)) for i in range(n)]\n"
        "    for t in threads:\n"
        "        t.start()\n"
        "    for t in threads:\n"
        "        t.join()\n"
        "    return results\n"
    )
    report = run_lint([target])
    assert [f.symbol for f in report.findings
            if f.rule == "race-shared-write"] == ["run.work"]


def test_worker_handed_to_run_threads_is_audited(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "from repro.parallel.dispatch import run_threads\n"
        "\n"
        "SHARED_WRITE_OK = ('counts',)\n"
        "\n"
        "def run(n):\n"
        "    counts = [0] * n\n"
        "    results = []\n"
        "\n"
        "    def work(tid):\n"
        "        counts[tid] += 1\n"
        "        results.append(tid)\n"
        "\n"
        "    run_threads(n, work, 'probe')\n"
        "    return results\n"
    )
    report = run_lint([target])
    findings = [f for f in report.findings if f.rule == "race-shared-write"]
    assert [f.symbol for f in findings] == ["run.work"]
    assert "results.append()" in findings[0].message


def test_helpers_a_worker_calls_are_audited():
    """A function the worker calls by bare name runs on its thread too,
    and each definition sharing that name is audited."""
    report = run_lint([FIXTURES / "bad_races_helper.py"])
    findings = sorted((f.symbol, f.message) for f in report.findings
                      if f.rule == "race-shared-write")
    assert [symbol for symbol, _ in findings] == ["run.replay", "run.tally"]
    assert "'staged'" in findings[0][1]
    assert "results.append()" in findings[1][1]


def test_bad_shm_names_both_missing_calls():
    report = run_lint([FIXTURES / "bad_shm.py"])
    messages = [f.message for f in report.findings if f.rule == "shm-lifecycle"]
    assert messages and all(".close() or .unlink()" in m for m in messages)


def test_shm_attach_only_needs_close(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "from multiprocessing import shared_memory\n"
        "def attach(name):\n"
        "    return shared_memory.SharedMemory(name=name)\n"
    )
    report = run_lint([target])
    assert any(
        f.rule == "shm-lifecycle" and "attach" in f.message
        for f in report.findings
    )
    target.write_text(
        target.read_text() + "def release(shm):\n    shm.close()\n"
    )
    report = run_lint([target])
    assert not any(f.rule == "shm-lifecycle" for f in report.findings)


def test_bad_barrier_names_each_gap():
    report = run_lint([FIXTURES / "bad_barrier.py"])
    messages = " ".join(
        f.message for f in report.findings if f.rule == "barrier-pairing"
    )
    assert "timed" in messages
    assert ".abort()" in messages


def test_stale_suppression_points_at_the_comment():
    report = run_lint([FIXTURES / "bad_stale.py"])
    stale = [f for f in report.findings if f.rule == "suppression-stale"]
    assert len(stale) == 1
    assert "rng-legacy" in stale[0].message
    # the flagged location is the comment itself, not the finding it missed
    source = (FIXTURES / "bad_stale.py").read_text().splitlines()
    assert "# lint: rng-legacy" in source[stale[0].line - 1]


def test_live_suppression_is_not_stale():
    report = run_lint([FIXTURES / "clean_stale.py"])
    assert not any(f.rule == "suppression-stale" for f in report.findings)
    assert any(f.rule == "rng-legacy" for f in report.suppressed)


def test_stale_check_sees_standalone_coverage(tmp_path):
    # a standalone comment covering a firing next line is live
    target = tmp_path / "mod.py"
    target.write_text(
        "import numpy as np\n"
        "# lint: rng-legacy -- shim\n"
        "x = np.random.rand(3)\n"
    )
    report = run_lint([target])
    assert not any(f.rule == "suppression-stale" for f in report.findings)


def test_stale_findings_are_themselves_suppressible(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "# lint: suppression-stale -- kept while the kernel is ported\n"
        "x = 1  # lint: hotpath-alloc -- nothing fires here\n"
    )
    report = run_lint([target])
    assert not any(f.rule == "suppression-stale" for f in report.findings)


# ---------------------------------------------------------------------------
# suppression semantics
# ---------------------------------------------------------------------------
def test_suppression_needs_a_tag_the_pass_accepts(tmp_path):
    bad = "import numpy as np\nx = np.random.rand(3)"
    target = tmp_path / "mod.py"

    target.write_text(bad + "  # lint: fp64-accumulator -- wrong pass\n")
    report = run_lint([target])
    assert any(f.rule == "rng-legacy" for f in report.findings)

    target.write_text(bad + "  # lint: rng-legacy -- seeded upstream\n")
    report = run_lint([target])
    assert not any(f.rule == "rng-legacy" for f in report.findings)
    assert any(f.rule == "rng-legacy" for f in report.suppressed)


def test_standalone_suppression_covers_next_line(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "import numpy as np\n"
        "# lint: rng-legacy -- legacy shim kept for comparison plots\n"
        "x = np.random.rand(3)\n"
    )
    report = run_lint([target])
    assert not report.findings
    assert report.suppressed


def test_lint_all_silences_everything(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "import numpy as np\n"
        "x = np.random.rand(3)  # lint: all -- vendored example\n"
    )
    report = run_lint([target])
    assert not report.findings


# ---------------------------------------------------------------------------
# baseline workflow
# ---------------------------------------------------------------------------
def test_baseline_grandfathers_existing_findings(tmp_path):
    dirty = run_lint([FIXTURES / "bad_rng.py"])
    assert dirty.findings
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, dirty)

    rerun = run_lint(
        [FIXTURES / "bad_rng.py"], baseline=load_baseline(baseline_path)
    )
    assert not rerun.findings
    assert rerun.baselined
    assert rerun.exit_code == 0


def test_baseline_does_not_hide_new_findings(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, run_lint([FIXTURES / "bad_rng.py"]))
    report = run_lint(
        [FIXTURES / "bad_metric.py"], baseline=load_baseline(baseline_path)
    )
    assert any(f.rule == "metric-name" for f in report.findings)
    assert report.exit_code == 1


# ---------------------------------------------------------------------------
# CLI contract: cumf-sgd lint / repro-lint / python -m repro.lint
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(BAD_FIXTURES))
def test_cli_exits_nonzero_on_bad_fixture(name, capsys):
    code = cumf_main(["lint", str(FIXTURES / name)])
    assert code == 1
    assert BAD_FIXTURES[name] in capsys.readouterr().out


def test_cli_exits_zero_on_clean_fixture(capsys):
    code = cumf_main(["lint", str(FIXTURES / "clean_hotpath.py")])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_json_format_is_parseable(capsys):
    code = cumf_main(["lint", str(FIXTURES / "bad_dtype.py"), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["counts"]["findings"] == len(payload["findings"])
    assert {"path", "line", "col", "rule", "message", "symbol"} <= set(
        payload["findings"][0]
    )


def test_cli_list_passes(capsys):
    assert lint_main(["--list-passes"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "hotpath-alloc", "dtype-fp64", "rng-legacy", "metric-name",
        "race-shared-write",
    ):
        assert rule in out


def test_cli_usage_error_on_missing_path(capsys):
    assert lint_main([str(FIXTURES / "no_such_file.py")]) == 2


def test_cli_baseline_roundtrip(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert lint_main(
        [str(FIXTURES / "bad_rng.py"), "--write-baseline", str(baseline)]
    ) == 0
    capsys.readouterr()
    assert lint_main(
        [str(FIXTURES / "bad_rng.py"), "--baseline", str(baseline)]
    ) == 0
    assert "baselined" in capsys.readouterr().out


def test_syntax_errors_are_reported_not_crashes(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    report = run_lint([bad])
    assert report.errors and not report.clean
    assert lint_main([str(bad)]) == 1
    assert "syntax error" in capsys.readouterr().out
