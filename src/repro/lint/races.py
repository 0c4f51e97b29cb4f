"""Pass 5: schedule race checker (rules ``race-shared-write``,
``race-schedule``).

Two complementary halves, mirroring the paper's two conflict-freedom
arguments:

**Mechanical plan verification** — HOGWILD! tolerates benign races, but the
Wavefront scheme (§5.2) and the serial-equivalent replay *claim* provable
conflict-freedom. The ``check_*`` functions here verify those claims from
first principles, given a concrete schedule object:

* :func:`check_serial_plan` — every :class:`~repro.sched.plan.SerialPlan`
  segment is contiguous, covers the sequence exactly, respects ``max_wave``,
  and contains no repeated row and no repeated column (Eq. 6 pairwise);
* :func:`check_epoch_plan` — an :class:`~repro.sched.plan.EpochPlan`'s
  wave-major layout schedules every sample of its order exactly once,
  with padding confined to trailing slots;
* :func:`check_wavefront_sequences` / :func:`check_round_grants` — every
  worker's column walk is a full permutation (column-lock coverage is
  total) and every granted round is row- and column-disjoint;
* :func:`simulate_wavefront_rounds` — re-derives the round-by-round grant
  schedule from per-worker column sequences under the Fig. 6 lock protocol.

During ``repro lint`` the pass runs these checkers once against freshly
compiled plans (:meth:`ScheduleRacePass.check_tree`), so a regression in the
plan compilers fails lint even before the test suite runs.

**Static lock-discipline audit** — files that run worker threads, either
through ``threading.Thread`` (``repro/parallel/dispatch.py``, where
:func:`~repro.parallel.dispatch.run_threads` starts them) or by handing a
function to ``run_threads`` (``repro/parallel/threads.py``,
``repro/core/wavefront.py``), must declare which closure names a worker may
mutate, in a module-level ``SHARED_WRITE_OK`` tuple. Inside a worker
function, or a function of the same file it calls by bare name, any store
to — or mutating call on — shared state outside that declaration is
flagged (``race-shared-write``). The allowed discipline today: per-thread
slots, per-grid-row state only the row's thread writes, GIL-atomic
``errors.append``, and the internally-locked ``ColumnLockArray``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.lint.core import FileContext, Finding, LintPass

__all__ = [
    "ScheduleRacePass",
    "check_serial_plan",
    "check_epoch_plan",
    "check_wavefront_sequences",
    "check_round_grants",
    "simulate_wavefront_rounds",
    "MUTATING_METHODS",
]


# ---------------------------------------------------------------------------
# mechanical schedule verification
# ---------------------------------------------------------------------------
def check_serial_plan(plan, rows: np.ndarray, cols: np.ndarray) -> list[str]:
    """Violations of the SerialPlan conflict-freedom/coverage contract."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    n = len(rows)
    violations: list[str] = []
    starts = np.asarray(plan.starts)
    stops = np.asarray(plan.stops)
    if len(starts) != len(stops):
        return [f"starts/stops length mismatch: {len(starts)} vs {len(stops)}"]
    if n == 0:
        if len(starts):
            violations.append("empty sequence but non-empty segmentation")
        return violations
    if len(starts) == 0:
        return [f"no segments for a {n}-sample sequence"]
    if starts[0] != 0:
        violations.append(f"first segment starts at {starts[0]}, not 0")
    if stops[-1] != n:
        violations.append(
            f"last segment stops at {stops[-1]}, not {n}: tail samples never run"
        )
    gaps = np.nonzero(starts[1:] != stops[:-1])[0]
    for i in gaps.tolist():
        violations.append(
            f"segments {i} and {i + 1} are not contiguous "
            f"(stop {stops[i]} != start {starts[i + 1]})"
        )
    for i, (a, b) in enumerate(zip(starts.tolist(), stops.tolist())):
        if b <= a:
            violations.append(f"segment {i} is empty or inverted [{a}, {b})")
            continue
        if b - a > plan.max_wave:
            violations.append(
                f"segment {i} has {b - a} samples > max_wave {plan.max_wave}"
            )
        if not (0 <= a and b <= n):
            violations.append(f"segment {i} [{a}, {b}) outside [0, {n})")
            continue
        seg_rows = rows[a:b]
        seg_cols = cols[a:b]
        if len(np.unique(seg_rows)) != len(seg_rows):
            violations.append(
                f"segment {i} [{a}, {b}) repeats a row: concurrent updates "
                "would race on P (Eq. 6 violated)"
            )
        if len(np.unique(seg_cols)) != len(seg_cols):
            violations.append(
                f"segment {i} [{a}, {b}) repeats a column: concurrent updates "
                "would race on Q (Eq. 6 violated)"
            )
    return violations


def check_epoch_plan(plan) -> list[str]:
    """Violations of the EpochPlan exactly-once/padding contract, read from
    the layout of all its lanes (:meth:`~repro.sched.plan.EpochPlan.positions`)."""
    violations: list[str] = []
    lengths = np.asarray(plan.lengths)
    matrix = np.asarray(plan.positions(
        0, plan.width, np.empty((len(lengths), plan.width), np.int64)))
    if matrix.shape[0] != len(lengths):
        return [f"{matrix.shape[0]} waves but {len(lengths)} lengths"]
    scheduled: list[np.ndarray] = []
    for i in range(matrix.shape[0]):
        row = matrix[i]
        length = int(lengths[i])
        if length <= 0 or length > matrix.shape[1]:
            violations.append(f"wave {i} has invalid length {length}")
            continue
        if (row[:length] < 0).any():
            violations.append(f"wave {i} schedules padding inside its live slots")
        if length < matrix.shape[1] and (row[length:] >= 0).any():
            violations.append(
                f"wave {i} has live samples beyond its declared length "
                f"{length}: those updates would silently never run"
            )
        scheduled.append(row[:length])
    if scheduled:
        flat = np.sort(np.concatenate(scheduled))
        expect = np.sort(np.asarray(plan.order))
        if len(flat) != len(expect) or not np.array_equal(flat, expect):
            violations.append(
                f"plan schedules {len(flat)} samples but the order holds "
                f"{len(expect)}; multiset mismatch — some sample is dropped "
                "or applied twice"
            )
    elif plan.nnz:
        violations.append(f"plan schedules nothing for {plan.nnz} samples")
    return violations


def check_wavefront_sequences(
    sequences: Sequence[np.ndarray], col_blocks: int
) -> list[str]:
    """Column-lock coverage: every worker must walk every column exactly once."""
    violations: list[str] = []
    for wid, seq in enumerate(sequences):
        seq = np.asarray(seq)
        if len(seq) != col_blocks or not np.array_equal(
            np.sort(seq), np.arange(col_blocks)
        ):
            violations.append(
                f"worker {wid} column walk is not a permutation of "
                f"range({col_blocks}): grid blocks would be skipped or "
                "visited twice"
            )
    return violations


def simulate_wavefront_rounds(
    sequences: Sequence[np.ndarray], col_blocks: int
) -> list[list[tuple[int, int]]]:
    """Round-by-round grant schedule under the Fig. 6 column-lock protocol.

    Each round, every unfinished worker tries to acquire its next column;
    the grant goes through iff no earlier worker claimed that column this
    round (the 1-D lock array arbitration). Returns the granted
    ``(worker, column)`` pairs per round.
    """
    pos = [0] * len(sequences)
    seqs = [np.asarray(s).tolist() for s in sequences]
    rounds: list[list[tuple[int, int]]] = []
    while any(pos[w] < len(seqs[w]) for w in range(len(seqs))):
        claimed: set[int] = set()
        grants: list[tuple[int, int]] = []
        for w in range(len(seqs)):
            if pos[w] >= len(seqs[w]):
                continue
            col = int(seqs[w][pos[w]])
            if col in claimed:
                continue  # lock held this round; worker spins
            claimed.add(col)
            grants.append((w, col))
            pos[w] += 1
        if not grants:  # pragma: no cover - only reachable on corrupt input
            break
        rounds.append(grants)
    return rounds


def check_round_grants(rounds: Sequence[Sequence[tuple[int, int]]]) -> list[str]:
    """Conflict-freedom of a grant schedule: within a round no two grants
    share a worker (grid row) or a column, and no block runs twice."""
    violations: list[str] = []
    seen: set[tuple[int, int]] = set()
    for i, grants in enumerate(rounds):
        workers = [w for w, _ in grants]
        columns = [c for _, c in grants]
        if len(set(workers)) != len(workers):
            violations.append(
                f"round {i} grants one worker two blocks concurrently "
                "(row conflict)"
            )
        if len(set(columns)) != len(columns):
            violations.append(
                f"round {i} grants one column to two workers: the column "
                "lock failed (Eq. 6 column conflict)"
            )
        for pair in grants:
            if pair in seen:
                violations.append(
                    f"block (worker {pair[0]}, column {pair[1]}) granted twice"
                )
            seen.add(pair)
    return violations


# ---------------------------------------------------------------------------
# static audit of threaded executors
# ---------------------------------------------------------------------------
#: method names treated as mutating when called on shared (closure) state
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "sort", "reverse",
    "acquire", "release", "try_acquire", "abort", "inc", "set", "observe",
    "record", "shuffle", "fill", "put", "write",
})


def _shared_write_allowlist(tree: ast.Module) -> set[str]:
    """Names declared in a module-level ``SHARED_WRITE_OK`` tuple/list."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "SHARED_WRITE_OK":
                if isinstance(node.value, (ast.Tuple, ast.List)):
                    return {
                        elt.value
                        for elt in node.value.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    }
    return set()


def _thread_target_names(tree: ast.Module) -> set[str]:
    """Function names worker threads run: a ``threading.Thread(...)``'s
    ``target=``, the function a ``target=<context>.run`` runs
    (``args=(fn, ...)``), the work handed to ``run_threads(n, fn, …)``,
    and every function of the file these call by bare name, transitively."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = (func.attr if isinstance(func, ast.Attribute)
                  else getattr(func, "id", None))
        if (called == "run_threads" and len(node.args) > 1
                and isinstance(node.args[1], ast.Name)):
            out.add(node.args[1].id)
        if called != "Thread":
            continue
        kws = {kw.arg: kw.value for kw in node.keywords}
        target, args = kws.get("target"), kws.get("args")
        if (isinstance(target, ast.Attribute) and target.attr == "run"
                and isinstance(args, ast.Tuple) and args.elts):
            target = args.elts[0]
        if isinstance(target, ast.Name):
            out.add(target.id)
    # a helper a worker calls runs on its thread too; a name may have
    # several definitions (two closures both called ``replay``): follow all
    defs: dict[str, list[ast.AST]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)
    todo = list(out)
    while todo:
        for fn in defs.get(todo.pop(), ()):
            called = {node.func.id for node in ast.walk(fn)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)}
            new = (called & defs.keys()) - out
            out |= new
            todo += new
    return out


def _local_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameters plus every name the function binds itself."""
    args = fn.args
    names = {
        a.arg
        for a in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *( [args.vararg] if args.vararg else [] ),
            *( [args.kwarg] if args.kwarg else [] ),
        )
    }
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for t in ast.walk(node.target):
                if isinstance(t, ast.Name):
                    names.add(t.id)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            for t in ast.walk(node.optional_vars):
                if isinstance(t, ast.Name):
                    names.add(t.id)
    return names


def _module_level_names(tree: ast.Module) -> set[str]:
    """Imports and module-level defs — reads/calls on these are not shared
    mutable state (modules, functions, classes)."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _base_name(node: ast.AST) -> str | None:
    """Leftmost Name of an attribute/subscript chain (``a.b[c].d`` -> a)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class ScheduleRacePass(LintPass):
    rule = "race-shared-write"
    description = (
        "worker threads may only mutate shared state declared in "
        "SHARED_WRITE_OK; plus a mechanical conflict-freedom self-check of "
        "the compiled schedules"
    )
    tags = ("race-schedule",)

    # -- static audit ---------------------------------------------------
    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        targets = _thread_target_names(ctx.tree)
        if not targets:
            return
        allowlist = _shared_write_allowlist(ctx.tree)
        module_names = _module_level_names(ctx.tree)
        for node, qual in ctx.qualnames.items():
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in targets
            ):
                yield from self._audit_worker(
                    ctx, node, qual, allowlist, module_names
                )

    def _audit_worker(
        self,
        ctx: FileContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        symbol: str,
        allowlist: set[str],
        module_names: set[str],
    ) -> Iterator[Finding]:
        local = _local_names(fn)

        def is_shared(name: str | None) -> bool:
            return (
                name is not None
                and name not in local
                and name not in allowlist
                and name not in module_names
            )

        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    for leaf in ast.walk(target):
                        if not isinstance(leaf, (ast.Attribute, ast.Subscript)):
                            continue
                        if not isinstance(leaf.ctx, ast.Store):
                            continue
                        base = _base_name(leaf)
                        if is_shared(base):
                            yield Finding(
                                ctx.rel, node.lineno, node.col_offset, self.rule,
                                f"worker thread writes shared state {base!r} "
                                "outside the declared SHARED_WRITE_OK "
                                "discipline (data race)",
                                symbol,
                            )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_METHODS
                ):
                    base = _base_name(func.value)
                    if is_shared(base):
                        yield Finding(
                            ctx.rel, node.lineno, node.col_offset, self.rule,
                            f"worker thread calls mutating "
                            f"{base}.{func.attr}() on shared state outside "
                            "the declared SHARED_WRITE_OK discipline",
                            symbol,
                        )
            elif isinstance(node, ast.Global):
                yield Finding(
                    ctx.rel, node.lineno, node.col_offset, self.rule,
                    "worker thread declares `global` — module state is "
                    "shared across all workers",
                    symbol,
                )

    # -- mechanical self-check ------------------------------------------
    def check_tree(self, files: list[FileContext]) -> Iterable[Finding]:
        for message in schedule_selfcheck():
            yield Finding(
                "<schedule-selfcheck>", 0, 0, "race-schedule", message
            )


def schedule_selfcheck(seed: int = 20170626) -> list[str]:
    """Compile small representative plans and verify their conflict-freedom.

    Run by ``repro lint`` on every invocation: a regression in the plan
    compilers (EpochPlan layout, SerialPlan greedy segmentation, wavefront
    column walks) surfaces as lint findings, independent of the test suite.
    """
    from repro.sched.plan import EpochPlan, SerialPlan

    rng = np.random.default_rng(seed)
    violations: list[str] = []

    order = rng.permutation(101).astype(np.int64)
    plan = EpochPlan(order, workers=4, f=3)
    violations += [f"EpochPlan: {v}" for v in check_epoch_plan(plan)]
    plan.repermute(rng)
    violations += [f"EpochPlan (repermuted): {v}" for v in check_epoch_plan(plan)]

    rows = rng.integers(0, 13, size=257)
    cols = rng.integers(0, 11, size=257)
    sp = SerialPlan.compile(rows, cols, max_wave=16)
    violations += [f"SerialPlan: {v}" for v in check_serial_plan(sp, rows, cols)]

    sequences = [rng.permutation(8) for _ in range(4)]
    violations += [
        f"wavefront: {v}" for v in check_wavefront_sequences(sequences, 8)
    ]
    rounds = simulate_wavefront_rounds(sequences, 8)
    violations += [f"wavefront: {v}" for v in check_round_grants(rounds)]
    return violations
