"""Compiled-program artifacts.

A :class:`CompiledProgram` bundles everything the back ends need:

* the chosen symbolic values and the stage mapping (what the paper's
  compiler hands to a target-specific compiler),
* the placed action instances (consumed by the PISA simulator),
* the concrete register allocation,
* the generated concrete P4 text, and
* phase timings and ILP statistics (reported in Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.ir import ActionInstance, ProgramIR
from ..analysis.unroll import UnrollBounds
from ..lang.symbols import ProgramInfo
from ..pisa.resources import TargetSpec
from .layout import LayoutSolution

__all__ = ["PlacedUnit", "RegisterAlloc", "CompiledProgram", "CompileStats"]


@dataclass
class PlacedUnit:
    """An active action instance with its pipeline stage."""

    instance: ActionInstance
    stage: int

    @property
    def label(self) -> str:
        return self.instance.label


@dataclass
class RegisterAlloc:
    """A placed register instance."""

    family: str
    index: int
    stage: int
    cells: int
    width: int

    @property
    def name(self) -> str:
        return f"{self.family}[{self.index}]"

    @property
    def size_bits(self) -> int:
        return self.cells * self.width


@dataclass
class CompileStats:
    """Per-phase timings (seconds) and ILP size.

    ``analysis_seconds`` covers IR construction plus unroll bounds; the
    ``ir_seconds``/``bounds_seconds`` sub-splits exist for
    ``p4all compile --stats`` and the compile-latency benchmark. The
    ``*_cached`` flags record which phases were served from a
    :class:`~repro.core.cache.CompileCache` (their timings then measure
    the lookup, not the work). A compile served whole from the layout
    tier (``layout_cached``) ran no phase: its stats carry
    ``lookup_seconds`` (plus the verify-tier lookup of a linked
    program) and zeros, never the timings of the compile that filled
    the cache."""

    parse_seconds: float = 0.0
    analysis_seconds: float = 0.0
    ir_seconds: float = 0.0
    bounds_seconds: float = 0.0
    ilp_build_seconds: float = 0.0
    ilp_solve_seconds: float = 0.0
    codegen_seconds: float = 0.0
    verify_seconds: float = 0.0
    lookup_seconds: float = 0.0
    ilp_variables: int = 0
    ilp_constraints: int = 0
    frontend_cached: bool = False
    bounds_cached: bool = False
    layout_cached: bool = False
    verify_cached: bool = False

    @property
    def total_seconds(self) -> float:
        return (
            self.parse_seconds
            + self.analysis_seconds
            + self.ilp_build_seconds
            + self.ilp_solve_seconds
            + self.codegen_seconds
            + self.verify_seconds
            + self.lookup_seconds
        )


@dataclass
class CompiledProgram:
    """Result of compiling one P4All program for one target."""

    source_name: str
    target: TargetSpec
    info: ProgramInfo
    ir: ProgramIR
    bounds: UnrollBounds
    solution: LayoutSolution
    units: list[PlacedUnit] = field(default_factory=list)
    registers: list[RegisterAlloc] = field(default_factory=list)
    p4_source: str = ""
    stats: CompileStats = field(default_factory=CompileStats)
    #: taint-verification result (:class:`~repro.core.validate.VerifyResult`)
    #: attached by the driver's verify phase; ``None`` when verification
    #: was disabled or the program has no module namespace.
    verify: object = None

    @property
    def symbol_values(self) -> dict[str, int]:
        return self.solution.symbol_values

    @property
    def namespace(self):
        """Module ownership map when built by the linker, else ``None``."""
        return self.info.namespace

    def units_in_stage(self, stage: int) -> list[PlacedUnit]:
        return [u for u in self.units if u.stage == stage]

    def registers_in_stage(self, stage: int) -> list[RegisterAlloc]:
        return [r for r in self.registers if r.stage == stage]

    def stages_used(self) -> list[int]:
        return sorted({u.stage for u in self.units})

    def total_register_bits(self) -> int:
        return sum(r.size_bits for r in self.registers)

    def family_total_cells(self, family: str) -> int:
        return sum(r.cells for r in self.registers if r.family == family)

    def __repr__(self) -> str:
        syms = ", ".join(f"{k}={v}" for k, v in sorted(self.symbol_values.items()))
        return (
            f"CompiledProgram({self.source_name!r} on {self.target.name}: {syms})"
        )
