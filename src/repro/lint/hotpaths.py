"""Hot-path registry: which functions must stay allocation-free.

PR 3 made the wave kernels and compiled-plan refills allocation-free in
steady state; this registry is the machine-readable statement of *which*
functions carry that guarantee. The allocation and dtype passes scope their
strictest rules to exactly these bodies.

Registering a new hot-path function
-----------------------------------
Two equivalent ways (see ``docs/STATIC_ANALYSIS.md``):

1. **Central registry** — add the function's dotted qualname under its file's
   path suffix in :data:`HOT_FUNCTIONS` below. Preferred for ``src/`` code:
   the hot set stays reviewable in one place and the hot module keeps zero
   dependency on the lint tooling.
2. **Decorator** — mark the def with ``@hot_path`` (or
   ``@hot_path(index_params=("rows", "cols"))``). The passes recognise the
   decorator *syntactically*, so the name just has to be ``hot_path`` — handy
   for fixtures and out-of-tree code. A no-op implementation is exported here
   for real use.

``index_params`` names parameters holding index arrays: inside a hot body, a
*load* subscript with such a bare-name index (``p[rows]``) is a fancy-index
gather, which copies — the kernels use ``ndarray.take(..., out=...)``
instead. Stores (``p[rows] = t``) are in-place scatters and stay legal.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.core import FileContext

__all__ = ["HotSpec", "HOT_FUNCTIONS", "hot_path", "find_hot_functions"]


@dataclass(frozen=True)
class HotSpec:
    """Per-function hot-path contract."""

    #: parameters that hold index arrays (fancy-index loads on them copy)
    index_params: frozenset[str] = field(default_factory=frozenset)


def _spec(*index_params: str) -> HotSpec:
    return HotSpec(index_params=frozenset(index_params))


#: file path suffix -> dotted qualname -> contract. The steady-state bodies
#: of the batch-Hogwild/wavefront hot path (see docs/STATIC_ANALYSIS.md).
HOT_FUNCTIONS: dict[str, dict[str, HotSpec]] = {
    "repro/core/kernels.py": {
        "sgd_wave_update": _spec("rows", "cols"),
        "sgd_serial_update": _spec(),
        "WaveWorkspace.wave_update": _spec("rows", "cols"),
        "WaveWorkspace.bind_plan": _spec(),
        "WaveWorkspace._views_for": _spec(),
    },
    "repro/sched/plan.py": {
        "EpochPlan.positions": _spec(),
        "EpochPlan.repermute": _spec(),
    },
    "repro/parallel/threads.py": {
        "_replay_shard": _spec("rows", "cols"),
        "_replay_blocks": _spec(),
    },
    "repro/backends/base.py": {
        "replay_waves": _spec("rows", "cols"),
    },
    # backend registry: the numpy reference backend's dispatch bodies sit on
    # the same hot path as the kernels they delegate to (the c backend runs
    # compiled code the AST passes cannot see, so only its python-level
    # launchers are registered)
    "repro/backends/numpy_backend.py": {
        "NumpyBackend.serial_update": _spec(),
    },
    "repro/backends/c_backend.py": {
        "CBackend.replay": _spec("rows", "cols"),
        "CBackend.bind": _spec("rows", "cols"),
        "CBackend.serial_update": _spec("rows", "cols"),
    },
}


def hot_path(fn=None, *, index_params: tuple[str, ...] = ()):
    """No-op decorator registering a function as hot for the lint passes.

    The passes match the decorator by name in the AST; at runtime this
    returns the function unchanged (zero steady-state cost).
    """

    def wrap(f):
        return f

    return wrap(fn) if callable(fn) else wrap


def _decorator_spec(node: ast.FunctionDef | ast.AsyncFunctionDef) -> HotSpec | None:
    """HotSpec when the def carries an ``@hot_path`` decorator, else None."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name != "hot_path":
            continue
        params: frozenset[str] = frozenset()
        if isinstance(dec, ast.Call):
            for kw in dec.keywords:
                if kw.arg == "index_params" and isinstance(
                    kw.value, (ast.Tuple, ast.List)
                ):
                    params = frozenset(
                        elt.value
                        for elt in kw.value.elts
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                    )
        return HotSpec(index_params=params)
    return None


def find_hot_functions(
    ctx: FileContext,
) -> dict[ast.FunctionDef | ast.AsyncFunctionDef, HotSpec]:
    """All hot function defs in one file (registry entries + decorators)."""
    registered: dict[str, HotSpec] = {}
    rel = ctx.rel.replace("\\", "/")
    for suffix, funcs in HOT_FUNCTIONS.items():
        if rel.endswith(suffix):
            registered.update(funcs)
    out: dict[ast.FunctionDef | ast.AsyncFunctionDef, HotSpec] = {}
    for node, qual in ctx.qualnames.items():
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        spec = _decorator_spec(node)
        if spec is None:
            spec = registered.get(qual)
        if spec is not None:
            out[node] = spec
    return out
