"""The reprolint pass driver: file discovery, pass execution, suppression
and baseline filtering.

``run_lint(paths)`` parses each ``.py`` file once, hands the shared
:class:`~repro.lint.core.FileContext` to every registered pass, then runs
whole-tree checks (the schedule self-check). Findings are filtered in two
stages:

1. **suppressions** — ``# lint: <tag>`` annotations at the finding's line
   (see :mod:`repro.lint.core`); the tag must be one the producing pass
   accepts, so an ``fp64-accumulator`` note cannot hide an allocation;
2. **baseline** — a JSON file of grandfathered ``(rule, path, symbol)``
   keys, for adopting a new pass on a dirty tree without annotating every
   line up front (``repro lint --write-baseline`` mints it, ``--baseline``
   applies it; burn it down over time).

Exit-code contract (relied on by CI and ``tests/test_lint_clean.py``):
0 when no unsuppressed, un-baselined findings remain; 1 otherwise; 2 for
usage errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.allocations import HotPathAllocationPass
from repro.lint.core import Finding, LintPass, load_file_context
from repro.lint.dtypes import DtypeDisciplinePass
from repro.lint.parallelism import BarrierPairingPass, ShmLifecyclePass
from repro.lint.races import ScheduleRacePass
from repro.lint.rng import SeededRngPass
from repro.lint.stale import SuppressionStalePass
from repro.lint.telemetry import TelemetryNamespacePass

__all__ = [
    "DEFAULT_PASSES",
    "LintReport",
    "run_lint",
    "iter_python_files",
    "load_baseline",
    "write_baseline",
]

#: the shipped passes, in execution order (suppression-stale runs last by
#: construction — it audits the other passes' raw findings)
DEFAULT_PASSES: tuple[type[LintPass], ...] = (
    HotPathAllocationPass,
    DtypeDisciplinePass,
    SeededRngPass,
    TelemetryNamespacePass,
    ScheduleRacePass,
    ShmLifecyclePass,
    BarrierPairingPass,
    SuppressionStalePass,
)

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "repro.egg-info", ".github"}


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    files: list[str] = field(default_factory=list)
    passes: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    @property
    def exit_code(self) -> int:
        return 0 if self.clean else 1


def iter_python_files(paths: Sequence[Path | str]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    out: dict[Path, None] = {}
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    out[sub.resolve()] = None
        elif path.suffix == ".py":
            out[path.resolve()] = None
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return list(out)


def _display_path(path: Path) -> str:
    """Repo-relative display path when possible, else absolute posix."""
    cwd = Path.cwd().resolve()
    try:
        return path.resolve().relative_to(cwd).as_posix()
    except ValueError:
        return path.resolve().as_posix()


def run_lint(
    paths: Sequence[Path | str],
    passes: Iterable[type[LintPass] | LintPass] | None = None,
    baseline: set[tuple[str, str, str]] | None = None,
) -> LintReport:
    """Run every pass over every file under ``paths``; return the report."""
    instances: list[LintPass] = [
        p if isinstance(p, LintPass) else p()
        for p in (passes if passes is not None else DEFAULT_PASSES)
    ]
    report = LintReport(passes=[p.rule for p in instances])
    contexts = []
    for path in iter_python_files(paths):
        rel = _display_path(path)
        try:
            ctx = load_file_context(path, rel)
        except SyntaxError as exc:
            report.errors.append(f"{rel}: syntax error: {exc.msg} (line {exc.lineno})")
            continue
        contexts.append(ctx)
        report.files.append(rel)

    raw: list[tuple[LintPass, Finding, set[str] | None]] = []
    for ctx in contexts:
        for p in instances:
            for finding in p.check_file(ctx):
                raw.append((p, finding, ctx.tags_for(finding.line)))
    for p in instances:
        for finding in p.check_tree(contexts):
            raw.append((p, finding, None))

    # meta-passes see the complete raw finding list (snapshot semantics:
    # collected first so every pass audits the same run), and their own
    # findings stay suppressible like any other
    by_rel = {ctx.rel: ctx for ctx in contexts}
    meta: list[tuple[LintPass, Finding, set[str] | None]] = []
    for p in instances:
        for finding in p.check_suppressions(contexts, raw, instances):
            ctx = by_rel.get(finding.path)
            tags = ctx.tags_for(finding.line) if ctx is not None else None
            meta.append((p, finding, tags))
    raw.extend(meta)

    for p, finding, tags in raw:
        if tags and tags & p.accepted_tags():
            report.suppressed.append(finding)
        elif baseline and finding.baseline_key() in baseline:
            report.baselined.append(finding)
        else:
            report.findings.append(finding)
    report.findings.sort()
    report.suppressed.sort()
    report.baselined.sort()
    return report


# ---------------------------------------------------------------------------
# baseline workflow
# ---------------------------------------------------------------------------
def load_baseline(path: Path | str) -> set[tuple[str, str, str]]:
    """The ``(rule, path, symbol)`` keys a :func:`write_baseline` file
    grandfathers, the ``baseline`` argument of :func:`run_lint`."""
    data = json.loads(Path(path).read_text())
    return {
        (entry["rule"], entry["path"], entry["symbol"])
        for entry in data["findings"]
    }


def write_baseline(path: Path | str, report: LintReport) -> Path:
    """Grandfather every current finding into a baseline file."""
    path = Path(path)
    keys = sorted({f.baseline_key() for f in report.findings})
    payload = {
        "comment": "reprolint baseline: grandfathered findings; burn down "
        "and delete entries as the code is fixed",
        "findings": [
            {"rule": rule, "path": rel, "symbol": symbol}
            for rule, rel, symbol in keys
        ],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
