"""Shared experiment infrastructure: result container and registry."""

from __future__ import annotations

import csv
import importlib
import io
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

__all__ = [
    "ExperimentResult",
    "REGISTRY",
    "register",
    "get_experiment",
    "run_experiment",
]


@dataclass
class ExperimentResult:
    """One reproduced table or figure, as printable rows.

    ``rows`` are the same rows/series the paper reports; ``notes`` records
    paper-reported reference values and any substitution caveats; ``checks``
    holds named boolean shape assertions (who wins, saturation points,
    crossovers) that the test suite verifies.
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)

    def add(self, *row) -> None:
        if len(row) != len(self.headers):
            raise ValueError(
                f"row of width {len(row)} does not match headers {list(self.headers)}"
            )
        self.rows.append(tuple(row))

    def check(self, name: str, passed: bool) -> None:
        """Record a shape assertion (e.g. 'cuMF beats LIBMF on Netflix')."""
        self.checks[name] = bool(passed)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def failed_checks(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]

    # ------------------------------------------------------------------
    def _fmt(self, value) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000 or abs(value) < 0.001:
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    def to_text(self) -> str:
        """Aligned plain-text table, matching the paper's rows/series."""
        cells = [list(self.headers)] + [
            [self._fmt(v) for v in row] for row in self.rows
        ]
        widths = [max(len(r[c]) for r in cells) for c in range(len(self.headers))]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        for i, row in enumerate(cells):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        for note in self.notes:
            lines.append(f"note: {note}")
        for name, ok in self.checks.items():
            lines.append(f"check [{'PASS' if ok else 'FAIL'}]: {name}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buf.getvalue()

    def column(self, name: str) -> list:
        """Extract one column by header name."""
        try:
            idx = list(self.headers).index(name)
        except ValueError:
            raise KeyError(f"no column {name!r} in {list(self.headers)}") from None
        return [row[idx] for row in self.rows]


#: the modules of :mod:`repro.experiments` that register experiments, one
#: per paper table/figure
EXPERIMENT_MODULES = (
    "cost", "eq8", "fig02", "fig04", "fig05", "fig07", "fig09", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "resilience",
    "roofline", "table2", "table4", "table5",
)


class ExperimentRegistry(MutableMapping):
    """Experiment id -> run callable, filled on first use.

    The experiment modules import the baselines, the GPU model and scipy,
    none of which ``cumf-sgd train`` runs, so the first read of the
    registry imports :data:`EXPERIMENT_MODULES` instead of the package.
    """

    def __init__(self) -> None:
        self._runs: dict[str, Callable[..., ExperimentResult]] = {}
        self._loaded = False

    def _load(self) -> dict[str, Callable[..., ExperimentResult]]:
        if not self._loaded:
            # set before importing: each module's @register reads the
            # registry while it loads
            self._loaded = True
            try:
                for name in EXPERIMENT_MODULES:
                    importlib.import_module(f"repro.experiments.{name}")
            except BaseException:
                self._loaded = False
                raise
        return self._runs

    def __getitem__(self, experiment_id: str) -> Callable[..., ExperimentResult]:
        return self._load()[experiment_id]

    def __setitem__(self, experiment_id: str,
                    fn: Callable[..., ExperimentResult]) -> None:
        self._load()[experiment_id] = fn

    def __delitem__(self, experiment_id: str) -> None:
        del self._load()[experiment_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._load())

    def __len__(self) -> int:
        return len(self._load())


REGISTRY = ExperimentRegistry()


def register(experiment_id: str):
    """Decorator registering ``run(quick=True) -> ExperimentResult``."""

    def deco(fn: Callable[..., ExperimentResult]):
        if experiment_id in REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        REGISTRY[experiment_id] = fn
        fn.experiment_id = experiment_id
        return fn

    return deco


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """Look up a registered experiment's run callable by id."""
    try:
        return REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}"
        ) from None


def run_experiment(experiment_id: str, quick: bool = True) -> ExperimentResult:
    """Run one registered experiment; ``quick`` trades scale for runtime."""
    return get_experiment(experiment_id)(quick=quick)
