"""reprolint core: findings, file contexts, suppressions, the pass protocol.

reprolint is the repo's own AST-based invariant checker. PRs 1-3 built
subsystems whose correctness rests on *conventions* — allocation-free hot
paths, fp32-only kernel arithmetic, ``Generator``-threaded randomness,
``repro.*`` metric names, conflict-free schedules — and nothing enforced
them statically. Each convention is one :class:`LintPass`; this module holds
the machinery they share.

Suppression syntax
------------------
A finding is silenced by a ``# lint:`` comment carrying a tag the producing
pass accepts (its rule id always works; passes may accept aliases such as
``fp64-accumulator``). Text after ``--`` is a free-form justification::

    resid = vals.astype(np.float64)  # lint: fp64-accumulator -- bincount sums

A standalone ``# lint: <tag>`` comment suppresses matching findings on the
next line as well as its own. ``# lint: all`` silences every pass (use
sparingly). Suppressions are *counted* — reports show how many findings were
annotated away, and the baseline workflow (:mod:`repro.lint.driver`) exists
for grandfathering findings without touching the offending lines.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

__all__ = [
    "Finding",
    "FileContext",
    "LintPass",
    "parse_suppressions",
    "load_file_context",
    "qualname_index",
]

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*(?P<tags>.*?)(?:\s*(?:--|—)\s.*)?$")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  #: display path (posix, repo-relative when possible)
    line: int
    col: int
    rule: str
    message: str
    symbol: str = ""  #: enclosing function/class qualname, when known

    def format(self) -> str:
        sym = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}{sym}"

    def baseline_key(self) -> tuple[str, str, str]:
        """Stable identity for the baseline file: survives line drift inside
        one function, resets when the code moves between functions."""
        return (self.rule, self.path, self.symbol or f"L{self.line}")

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "symbol": self.symbol,
        }


@dataclass
class FileContext:
    """One parsed source file, shared by every pass."""

    path: Path
    rel: str
    source: str
    tree: ast.Module
    #: line number -> suppression tags declared for that line
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: AST function/class node -> dotted qualname ("Class.method")
    qualnames: dict[ast.AST, str] = field(default_factory=dict)

    def tags_for(self, line: int) -> set[str]:
        return self.suppressions.get(line, set())


class LintPass:
    """Base class for reprolint passes.

    Subclasses set ``rule`` (the id attached to findings and accepted as a
    suppression tag), optionally ``tags`` (extra accepted suppression
    aliases), and override :meth:`check_file` and/or :meth:`check_tree`.
    """

    rule: str = ""
    description: str = ""
    #: extra suppression tags accepted besides the rule id
    tags: tuple[str, ...] = ()

    def accepted_tags(self) -> set[str]:
        return {self.rule, "all", *self.tags}

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        """Per-file AST walk; yield findings."""
        return ()

    def check_tree(self, files: list[FileContext]) -> Iterable[Finding]:
        """One whole-run check after all files were visited (optional)."""
        return ()

    def check_suppressions(
        self,
        contexts: list["FileContext"],
        raw: list[tuple["LintPass", Finding, set | None]],
        passes: list["LintPass"],
    ) -> Iterable[Finding]:
        """Meta-check over the run's *raw* (pre-filter) findings (optional).

        The driver calls this after every ``check_file``/``check_tree``
        finding has been collected, passing the shared contexts, the raw
        ``(pass, finding, tags)`` triples, and the pass instances. Used by
        passes whose subject is the lint run itself — e.g.
        ``suppression-stale``, which must see what *would* have fired to
        decide whether an annotation still earns its keep. Findings
        yielded here go through the normal suppression filter.
        """
        return ()


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Extract ``# lint:`` tags per line (standalone comments also cover the
    following line)."""
    out: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if not m:
                continue
            tags = {t for t in re.split(r"[,\s]+", m.group("tags").strip()) if t}
            if not tags:
                continue
            line = tok.start[0]
            out.setdefault(line, set()).update(tags)
            standalone = tok.line[: tok.start[1]].strip() == ""
            if standalone:
                out.setdefault(line + 1, set()).update(tags)
    except tokenize.TokenError:
        pass
    return out


def qualname_index(tree: ast.Module) -> dict[ast.AST, str]:
    """Map every function/class def to its dotted qualname."""
    index: dict[ast.AST, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                index[child] = qual
                visit(child, qual)
            else:
                visit(child, prefix)

    visit(tree, "")
    return index


def load_file_context(path: Path, rel: str | None = None) -> FileContext:
    """Read + parse one file into a :class:`FileContext` (raises SyntaxError)."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    ctx = FileContext(
        path=path,
        rel=rel if rel is not None else path.as_posix(),
        source=source,
        tree=tree,
        suppressions=parse_suppressions(source),
    )
    ctx.qualnames = qualname_index(tree)
    return ctx
