"""Figure 1 — the reusable structure library, demonstrated elastic.

The paper's Figure 1 catalogues the data structures that recur across
PISA applications. This harness compiles every library module against
two targets (small and large) and reports the sizes each stretches to —
the elasticity property that makes the modules reusable as-is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import compile_source
from ..pisa.resources import TargetSpec, small_target, tofino
from ..structures import LIBRARY_SOURCES
from .tables import render_table

__all__ = ["LibraryRow", "LibraryDemo", "run_library_demo"]


@dataclass
class LibraryRow:
    module: str
    small_symbols: dict[str, int]
    large_symbols: dict[str, int]
    small_bits: int
    large_bits: int

    @property
    def stretch_factor(self) -> float:
        return self.large_bits / self.small_bits if self.small_bits else 0.0


@dataclass
class LibraryDemo:
    rows: list[LibraryRow] = field(default_factory=list)

    def row(self, module: str) -> LibraryRow:
        for row in self.rows:
            if row.module == module:
                return row
        raise KeyError(module)

    def format(self) -> str:
        def fmt(symbols):
            return ", ".join(f"{k}={v}" for k, v in sorted(symbols.items()))

        table_rows = [
            [r.module, fmt(r.small_symbols), fmt(r.large_symbols),
             f"{r.stretch_factor:.0f}x"]
            for r in self.rows
        ]
        return render_table(
            ["module", "small target", "large target", "memory stretch"],
            table_rows,
            title="Figure 1 — the elastic module library stretches per target",
        )


def run_library_demo(
    small: TargetSpec | None = None,
    large: TargetSpec | None = None,
) -> LibraryDemo:
    """Compile each library module on a small and a large target."""
    # 6 stages: the 9-level hierarchical sketch needs ceil(9/F) = 5
    # stages of stateful ALUs even at minimum size.
    small = small or small_target(stages=6, memory_kb=16)
    large = large or tofino()
    demo = LibraryDemo()
    for name, source in LIBRARY_SOURCES.items():
        compiled_small = compile_source(source, small, source_name=name)
        compiled_large = compile_source(source, large, source_name=name)
        demo.rows.append(
            LibraryRow(
                module=name,
                small_symbols=dict(compiled_small.symbol_values),
                large_symbols=dict(compiled_large.symbol_values),
                small_bits=compiled_small.total_register_bits(),
                large_bits=compiled_large.total_register_bits(),
            )
        )
    return demo
