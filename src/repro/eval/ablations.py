"""Ablations of the compiler's design choices (DESIGN.md §5).

* **ILP vs greedy first-fit** — the related-work contrast: greedy
  placement commits memory in program order and cannot trade early
  structures against later, higher-utility ones.
* **Exclusion edges vs all-precedence** — the paper's prototype (§5) had
  only precedence information; treating commutative conflicts as ordered
  inflates path lengths and shrinks what fits.
* **Bound tightness** — how often the ILP uses fewer iterations than the
  unroll bound offered (§4.2's "coarse approximation" vs the "finer
  analysis via ILP").
* **Solvers** — HiGHS, the compiler's solver, vs the built-in branch
  and bound on the same models (objective must agree; time may not).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..analysis import build_ir, compute_upper_bounds
from ..core import CompileOptions, compile_source, greedy_layout
from ..core.layout import LayoutBuilder
from ..ilp.solver_bb import solve_branch_and_bound
from ..lang import check_program, parse_program
from ..lang.symbols import eval_static
from ..pisa.resources import TargetSpec
from .tables import render_table

__all__ = [
    "GreedyVsIlp",
    "compare_greedy_vs_ilp",
    "ExclusionAblation",
    "compare_exclusion_handling",
    "BoundTightness",
    "measure_bound_tightness",
    "SolverComparison",
    "compare_solvers",
]


# ---------------------------------------------------------------------------
# Greedy vs ILP
# ---------------------------------------------------------------------------


@dataclass
class GreedyVsIlp:
    name: str
    ilp_utility: float
    greedy_utility: float
    ilp_seconds: float
    greedy_seconds: float
    ilp_symbols: dict[str, int]
    greedy_symbols: dict[str, int]

    @property
    def utility_gain(self) -> float:
        """ILP utility relative to greedy (≥ 1 means ILP at least as good)."""
        if self.greedy_utility == 0:
            return float("inf") if self.ilp_utility > 0 else 1.0
        return self.ilp_utility / self.greedy_utility

    def format(self) -> str:
        return (
            f"{self.name}: ILP utility {self.ilp_utility:.0f} "
            f"({self.ilp_seconds:.2f}s) vs greedy {self.greedy_utility:.0f} "
            f"({self.greedy_seconds:.4f}s) -> gain {self.utility_gain:.2f}x"
        )


def _utility_at(source_info, symbol_values: dict[str, int]) -> float:
    """Evaluate a program's utility expression at concrete symbol values."""
    opt = source_info.program.optimize()
    if opt is None:
        return 0.0
    env: dict[str, float] = dict(source_info.consts)
    env.update(symbol_values)
    return float(eval_static(opt.utility, env))


def compare_greedy_vs_ilp(
    source: str,
    target: TargetSpec,
    name: str = "program",
) -> GreedyVsIlp:
    """Run both allocators on one program and compare achieved utility."""
    t0 = time.perf_counter()
    compiled = compile_source(source, target, source_name=name)
    ilp_seconds = time.perf_counter() - t0

    info = check_program(parse_program(source, name))
    ir = build_ir(info, "Ingress")
    bounds = compute_upper_bounds(ir, target)
    t0 = time.perf_counter()
    greedy = greedy_layout(ir, bounds, target)
    greedy_seconds = time.perf_counter() - t0

    return GreedyVsIlp(
        name=name,
        ilp_utility=_utility_at(info, compiled.symbol_values),
        greedy_utility=_utility_at(info, greedy.symbol_values),
        ilp_seconds=ilp_seconds,
        greedy_seconds=greedy_seconds,
        ilp_symbols=dict(compiled.symbol_values),
        greedy_symbols=dict(greedy.symbol_values),
    )


# ---------------------------------------------------------------------------
# Exclusion edges vs all-precedence (the §5 prototype limitation)
# ---------------------------------------------------------------------------


@dataclass
class ExclusionAblation:
    name: str
    full_symbols: dict[str, int]
    degraded_symbols: dict[str, int]
    full_utility: float
    degraded_utility: float

    def format(self) -> str:
        return (
            f"{self.name}: with exclusion edges {self.full_symbols} "
            f"(utility {self.full_utility:.0f}); all-precedence "
            f"{self.degraded_symbols} (utility {self.degraded_utility:.0f})"
        )


def compare_exclusion_handling(
    source: str,
    target: TargetSpec,
    name: str = "program",
) -> ExclusionAblation:
    """Compile with real exclusion edges vs the all-precedence prototype."""
    info = check_program(parse_program(source, name))
    full = compile_source(source, target, source_name=name)
    degraded = compile_source(
        source,
        target,
        options=CompileOptions(exclusion_as_precedence=True),
        source_name=name,
    )
    return ExclusionAblation(
        name=name,
        full_symbols=dict(full.symbol_values),
        degraded_symbols=dict(degraded.symbol_values),
        full_utility=_utility_at(info, full.symbol_values),
        degraded_utility=_utility_at(info, degraded.symbol_values),
    )


# ---------------------------------------------------------------------------
# Bound tightness
# ---------------------------------------------------------------------------


@dataclass
class BoundTightness:
    name: str
    bounds: dict[str, int]
    chosen: dict[str, int]

    def format(self) -> str:
        rows = [
            [sym, self.bounds[sym], self.chosen.get(sym, "-")]
            for sym in self.bounds
        ]
        return render_table(
            ["symbolic", "unroll bound", "ILP choice"], rows,
            title=f"Bound tightness — {self.name}",
        )


def measure_bound_tightness(
    source: str,
    target: TargetSpec,
    name: str = "program",
) -> BoundTightness:
    """Unroll bound vs the iteration count the ILP actually kept."""
    info = check_program(parse_program(source, name))
    ir = build_ir(info, "Ingress")
    bounds = compute_upper_bounds(ir, target)
    compiled = compile_source(source, target, source_name=name)
    return BoundTightness(
        name=name,
        bounds=bounds.as_counts(),
        chosen={
            sym: compiled.symbol_values.get(sym, 0)
            for sym in bounds.as_counts()
        },
    )


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


@dataclass
class SolverComparison:
    name: str
    objectives: dict[str, float] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)

    @property
    def agree(self) -> bool:
        values = list(self.objectives.values())
        return all(abs(v - values[0]) <= max(1.0, abs(values[0])) * 1e-4
                   for v in values)

    def format(self) -> str:
        parts = [
            f"{solver}: obj {self.objectives[solver]:.2f} "
            f"in {self.seconds[solver]:.3f}s"
            for solver in self.objectives
        ]
        status = "AGREE" if self.agree else "DISAGREE"
        return f"{self.name}: " + "; ".join(parts) + f" [{status}]"


def compare_solvers(
    source: str,
    target: TargetSpec,
    name: str = "program",
    time_limit: float | None = 60.0,
) -> SolverComparison:
    """Lay one program out as the compiler does (HiGHS), then solve the
    same layout ILP with the from-scratch branch and bound."""
    info = check_program(parse_program(source, name))
    ir = build_ir(info, "Ingress")
    bounds = compute_upper_bounds(ir, target)
    utility = info.program.optimize()
    builder = LayoutBuilder(ir, bounds, target)
    builder.build()
    out = SolverComparison(name=name)
    for solution in (
        builder.solve(utility=utility.utility if utility else None,
                      time_limit=time_limit),
        solve_branch_and_bound(builder.layout.model, time_limit=time_limit),
    ):
        out.objectives[solution.backend] = solution.objective
        out.seconds[solution.backend] = solution.solve_seconds
    return out
