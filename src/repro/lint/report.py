"""reprolint reporters: human-readable text and machine-readable JSON.

The JSON shape is stable (CI parses it): ``findings``/``suppressed``/
``baselined`` lists of finding dicts plus summary counts and the pass roster.
"""

from __future__ import annotations

import json

from repro.lint.driver import LintReport

__all__ = ["to_human", "to_json_dict", "to_json"]


def to_human(report: LintReport) -> str:
    """One line per finding and error, then a one-line verdict with the
    suppressed/baselined counts, file count and pass roster."""
    lines: list[str] = [f.format() for f in report.findings]
    lines.extend(f"error: {err}" for err in report.errors)
    n, s, b = len(report.findings), len(report.suppressed), len(report.baselined)
    extras = []
    if s:
        extras.append(f"{s} suppressed")
    if b:
        extras.append(f"{b} baselined")
    extra = f" ({', '.join(extras)})" if extras else ""
    verdict = "clean" if report.clean else f"{n} finding{'s' if n != 1 else ''}"
    lines.append(
        f"reprolint: {verdict}{extra} across {len(report.files)} files "
        f"[{', '.join(report.passes)}]"
    )
    return "\n".join(lines)


def to_json_dict(report: LintReport) -> dict:
    """The report as the stable JSON shape CI parses: verdict, counts,
    passes, and the finding dicts of each list."""
    return {
        "clean": report.clean,
        "counts": {
            "findings": len(report.findings),
            "suppressed": len(report.suppressed),
            "baselined": len(report.baselined),
            "files": len(report.files),
            "errors": len(report.errors),
        },
        "passes": report.passes,
        "findings": [f.to_dict() for f in report.findings],
        "suppressed": [f.to_dict() for f in report.suppressed],
        "baselined": [f.to_dict() for f in report.baselined],
        "errors": report.errors,
    }


def to_json(report: LintReport, indent: int | None = 2) -> str:
    """:func:`to_json_dict` serialized with sorted keys."""
    return json.dumps(to_json_dict(report), indent=indent, sort_keys=True)
