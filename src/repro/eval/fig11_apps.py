"""Figure 11 — the application benchmark table.

For each of the four applications: lines of (plain, unrolled) P4 versus
lines of elastic P4All, the compile time, and the layout ILP's size.

The paper compared against the authors' hand-written P4 programs; those
are unavailable, so the "P4 LoC" column counts the *concrete P4 the
compiler itself generates* at the chosen configuration — i.e. the code a
programmer without elastic loops would have had to write and maintain by
hand (see DESIGN.md §2). The shape to reproduce: P4All is shorter
everywhere, dramatically so for loop-heavy programs (NetCache,
SketchLearn); compile time is seconds at worst and dominated by the ILP
solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apps import (
    conquest_source,
    netcache_source,
    precision_source,
    sketchlearn_source,
)
from ..core import compile_source
from ..pisa.resources import TargetSpec, tofino
from .tables import render_table

__all__ = ["AppRow", "AppBenchmark", "run_app_benchmark", "count_loc"]


def count_loc(source: str) -> int:
    """Non-blank, non-comment lines (the usual LoC measure)."""
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count


@dataclass
class AppRow:
    name: str
    p4_loc: int
    p4all_loc: int
    compile_seconds: float
    solve_seconds: float
    ilp_variables: int
    ilp_constraints: int
    symbol_values: dict[str, int] = field(default_factory=dict)

    @property
    def loc_ratio(self) -> float:
        return self.p4_loc / self.p4all_loc if self.p4all_loc else 0.0


@dataclass
class AppBenchmark:
    rows: list[AppRow] = field(default_factory=list)

    def row(self, name: str) -> AppRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def format(self) -> str:
        table_rows = [
            [
                r.name,
                r.p4_loc,
                r.p4all_loc,
                f"{r.compile_seconds:.2f}",
                f"({r.ilp_variables}, {r.ilp_constraints})",
            ]
            for r in self.rows
        ]
        return render_table(
            ["application", "P4 code", "P4All code", "compile time (s)",
             "ILP (var, constr)"],
            table_rows,
            title="Figure 11 — P4All applications",
        )


def run_app_benchmark(
    target: TargetSpec | None = None,
) -> AppBenchmark:
    """Compile all four applications and collect the Figure-11 columns."""
    target = target or tofino()
    sources = {
        "NetCache": netcache_source(),
        "SketchLearn": sketchlearn_source(),
        "Precision": precision_source(),
        "ConQuest": conquest_source(),
    }
    bench = AppBenchmark()
    for name, source in sources.items():
        compiled = compile_source(source, target,
                                  source_name=name.lower())
        bench.rows.append(
            AppRow(
                name=name,
                p4_loc=count_loc(compiled.p4_source),
                p4all_loc=count_loc(source),
                compile_seconds=compiled.stats.total_seconds,
                solve_seconds=compiled.stats.ilp_solve_seconds,
                ilp_variables=compiled.stats.ilp_variables,
                ilp_constraints=compiled.stats.ilp_constraints,
                symbol_values=dict(compiled.symbol_values),
            )
        )
    return bench
