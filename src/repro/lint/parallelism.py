"""Passes 6-7: parallel-machinery lifecycle discipline.

POSIX shared memory and multiprocessing barriers fail *open*: a
``SharedMemory`` segment nobody unlinks outlives the process tree in
``/dev/shm``, and a ``Barrier.wait()`` with no timeout hangs the parent
forever when a worker dies mid-epoch. No module in ``src/`` uses either
today; these passes keep any that does from landing the *patterns that
make those failures possible*:

``shm-lifecycle``
    A file that creates segments (``SharedMemory(create=True)``) must also
    call ``.close()`` and ``.unlink()`` somewhere — the creating side owns
    the name and is the only side that can release it. A file that merely
    attaches (``SharedMemory(name=...)``) must still ``.close()`` its
    mapping.

``barrier-pairing``
    A file that constructs a ``Barrier`` must (a) wait on one, (b) have at
    least one *timed* wait (an argument or ``timeout=``) so a dead peer
    surfaces as ``BrokenBarrierError`` instead of a hang, and (c) call
    ``.abort()`` on some teardown path so the other side's waits break too.

Both are file-granular presence checks, not dataflow analyses: they cannot
prove the close matches the create, but they make "allocated a segment,
never wrote the release path" — the actual bug class — impossible to land
silently.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.lint.core import FileContext, Finding, LintPass

__all__ = ["ShmLifecyclePass", "BarrierPairingPass"]


def _call_name(node: ast.Call) -> str:
    """Last dotted component of the callable: ``ctx.Barrier`` -> ``Barrier``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _method_calls(tree: ast.Module, names: frozenset[str]) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names
        ):
            yield node


class ShmLifecyclePass(LintPass):
    rule = "shm-lifecycle"
    description = (
        "files creating SharedMemory segments must contain .close() and "
        ".unlink() calls; attach-only files must .close()"
    )
    tags = ("shm-leak",)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        creates: list[ast.Call] = []
        attaches: list[ast.Call] = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and _call_name(node) == "SharedMemory"):
                continue
            if any(
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            ):
                creates.append(node)
            else:
                attaches.append(node)
        if not creates and not attaches:
            return
        methods = {_call_name(c) for c in _method_calls(
            ctx.tree, frozenset({"close", "unlink"})
        )}
        if creates:
            missing = [m for m in ("close", "unlink") if m not in methods]
            if missing:
                verbs = " or ".join(f".{m}()" for m in missing)
                for call in creates:
                    yield Finding(
                        ctx.rel, call.lineno, call.col_offset, self.rule,
                        f"SharedMemory(create=True) but no {verbs} call in "
                        "this file; the creating side owns the segment name "
                        "and must release it or it leaks in /dev/shm",
                    )
        elif "close" not in methods:
            for call in attaches:
                yield Finding(
                    ctx.rel, call.lineno, call.col_offset, self.rule,
                    "SharedMemory attach with no .close() call in this "
                    "file; every mapping holds the segment open",
                )


class BarrierPairingPass(LintPass):
    rule = "barrier-pairing"
    description = (
        "files constructing a Barrier must wait on it, bound at least one "
        "wait with a timeout, and abort it on teardown"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        barriers = [
            node for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Call) and _call_name(node) == "Barrier"
        ]
        if not barriers:
            return
        waits = list(_method_calls(ctx.tree, frozenset({"wait"})))
        timed = [
            w for w in waits
            if w.args or any(kw.arg == "timeout" for kw in w.keywords)
        ]
        aborts = list(_method_calls(ctx.tree, frozenset({"abort"})))
        missing = []
        if not waits:
            missing.append("no .wait() call")
        elif not timed:
            missing.append("no timed .wait(timeout=...) — a dead peer "
                           "hangs every untimed waiter forever")
        if not aborts:
            missing.append("no .abort() call on any teardown path")
        if missing:
            for call in barriers:
                yield Finding(
                    ctx.rel, call.lineno, call.col_offset, self.rule,
                    "Barrier constructed but " + "; ".join(missing),
                )
