"""Experiment harness: structured results that print like paper exhibits.

Every experiment function returns an :class:`ExperimentResult` holding
tables (rows the paper's tables report) and series (the curves its
figures plot), so benchmarks and examples share one code path and the
output can be eyeballed against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

__all__ = ["Table", "Series", "ExperimentResult"]


@dataclass
class Table:
    """A printable table (one per paper table, or per figure summary)."""

    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has "
                f"{len(self.columns)} columns")
        self.rows.append(list(values))

    def column(self, name: str) -> List[object]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def formatted(self) -> str:
        def cell(value: object) -> str:
            if isinstance(value, float):
                if value == 0:
                    return "0"
                if abs(value) >= 1000 or abs(value) < 0.01:
                    return f"{value:.3g}"
                return f"{value:.3f}".rstrip("0").rstrip(".")
            return str(value)

        grid = [self.columns] + [[cell(v) for v in row] for row in self.rows]
        widths = [max(len(row[i]) for row in grid)
                  for i in range(len(self.columns))]
        lines = [self.title, "-" * len(self.title)]
        for index, row in enumerate(grid):
            lines.append("  ".join(
                text.ljust(width) for text, width in zip(row, widths)))
            if index == 0:
                lines.append("  ".join("=" * width for width in widths))
        return "\n".join(lines)


@dataclass
class Series:
    """One plotted curve: (x, y) points with axis labels."""

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)
    x_label: str = "x"
    y_label: str = "y"

    def add(self, x: float, y: float) -> None:
        self.points.append((x, y))

    @property
    def xs(self) -> List[float]:
        return [p[0] for p in self.points]

    @property
    def ys(self) -> List[float]:
        return [p[1] for p in self.points]


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    exp_id: str                 # e.g. "fig11", "table5"
    title: str
    tables: List[Table] = field(default_factory=list)
    series: List[Series] = field(default_factory=list)
    #: Scalar findings keyed by name (the numbers EXPERIMENTS.md quotes).
    findings: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Fault-timeline entries of every engine the run armed, in run
    #: order; ``--report`` writes them. Not printed.
    faults: List[Dict[str, object]] = field(default_factory=list)
    #: Causal traces the run collected (``repro.obs.trace.Trace``);
    #: ``--report`` writes them. Not printed.
    traces: List[object] = field(default_factory=list)

    def series_named(self, name: str) -> Series:
        for series in self.series:
            if series.name == name:
                return series
        raise KeyError(f"no series named {name!r} in {self.exp_id}")

    def table_named(self, title: str) -> Table:
        for table in self.tables:
            if table.title == title:
                return table
        raise KeyError(f"no table named {title!r} in {self.exp_id}")

    def formatted(self) -> str:
        lines = [f"=== {self.exp_id}: {self.title} ==="]
        for table in self.tables:
            lines.append(table.formatted())
            lines.append("")
        for series in self.series:
            lines.append(f"[series] {series.name} "
                         f"({series.x_label} -> {series.y_label})")
            lines.append("  " + "  ".join(
                f"({x:.4g}, {y:.4g})" for x, y in series.points))
        if self.findings:
            lines.append("[findings] " + ", ".join(
                f"{key}={value:.4g}" for key, value in self.findings.items()))
        for note in self.notes:
            lines.append(f"[note] {note}")
        return "\n".join(lines)
