"""Greedy first-fit layout baseline.

Related work (Jose et al.) compiles fixed programs with both ILPs and
greedy heuristics; the paper's contribution is that the *elastic* problem
is solved optimally by an ILP. This module provides the natural greedy
baseline for the ablation benchmark:

1. walk placement units in program order, placing each in the earliest
   stage that satisfies dependencies (strictly after predecessors, not
   sharing a stage with excluded peers or over-budget ALUs) and still
   has memory for what the unit brings — its table SRAM, its fixed-size
   registers, and one cell of each elastic register — dropping an
   elastic iteration — and all later iterations of its symbolic — when it
   does not fit;
2. afterwards, split what each stage has left equally among the
   elastic register instances placed there (on top of their one cell),
   then shrink every family to its smallest per-instance share (the
   equal-size rule) and to the upper bound its ``assume``s give the
   size symbol;
3. check every ``assume`` at the values reached: a layout the ILP would
   call infeasible (``assume kv_rows >= 1`` with the store dropped) is a
   :class:`CompileError` here too, not a silently smaller program.

The ILP dominates this baseline whenever utility favors an allocation the
greedy order cannot reach (e.g. reserving memory for a later, more
valuable structure) — exactly the effect the ablation measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.assumes import extract_numeric_bounds, false_assumes
from ..analysis.dependencies import build_dependency_graph
from ..analysis.ir import ProgramIR, instantiate
from ..analysis.unroll import UnrollBounds
from ..ilp import SolveStatus
from ..lang import ast
from ..lang.symbols import eval_static
from ..pisa.resources import TargetSpec
from .errors import CompileError
from .layout import LayoutSolution
from .utility import utility_at

__all__ = ["GreedyResult", "greedy_layout"]


@dataclass
class GreedyResult:
    """Outcome of the greedy allocator (mirrors the ILP solution shape)."""

    symbol_values: dict[str, int]
    instance_stage: dict[int, int | None]
    register_alloc: dict[tuple[str, int], tuple[int, int]]  # (fam, idx) -> (stage, cells)
    placed_count: int = 0
    dropped_count: int = 0
    #: the action instances the layout was computed over (uids match
    #: ``instance_stage``), so callers can assemble a CompiledProgram
    #: without re-instantiating.
    instances: list = field(default_factory=list)

    def utility_value(self, utility: ast.Expr, consts: dict[str, int]) -> float:
        """Evaluate the utility function at the greedy symbolic values."""
        env: dict[str, float] = dict(consts)
        env.update(self.symbol_values)
        return float(eval_static(utility, env))

    def to_solution(self, consts: dict[str, int], utility=None,
                    utility_terms=None, seconds: float = 0.0) -> LayoutSolution:
        """The layout in the shape the ILP decodes to: ``FEASIBLE``,
        no variables, the objective :func:`utility_at` the values."""
        objective, breakdown = utility_at(
            self.symbol_values, consts, utility, utility_terms)
        return LayoutSolution(
            status=SolveStatus.FEASIBLE,
            objective=objective,
            symbol_values=self.symbol_values,
            node_stage={},
            instance_stage=self.instance_stage,
            register_alloc=self.register_alloc,
            iteration_active={
                (inst.symbolic, inst.iteration):
                    self.instance_stage[inst.uid] is not None
                for inst in self.instances
                if inst.symbolic is not None
            },
            solve_seconds=seconds,
            backend="greedy",
            num_variables=0,
            num_constraints=0,
            utility_breakdown=breakdown,
        )


def greedy_layout(
    ir: ProgramIR,
    bounds: UnrollBounds,
    target: TargetSpec,
) -> GreedyResult:
    """Greedy first-fit placement and memory split (see module docstring)."""
    counts = bounds.as_counts()
    instances = instantiate(ir, counts)
    graph = build_dependency_graph(instances)

    prec_in = graph.precedence_in
    excl = graph.exclusion

    from .tablemem import table_memory_bits

    info = ir.info

    def fixed_bits(reg) -> int:
        """What a register instance needs whatever the split decides:
        all of a fixed-size array, one cell of an elastic one."""
        if reg.is_elastic_size:
            return reg.cell_bits
        return reg.cell_bits * int(eval_static(reg.decl.size, info.consts))

    node_stage: dict[int, int | None] = {}
    stateful_used = [0] * target.stages
    stateless_used = [0] * target.stages
    hash_used = [0] * target.stages
    # Table SRAM and registers draw on the same M bits (the ILP's #8
    # with the §4.4 table extension): bits committed per stage so far.
    memory_used = [0] * target.stages
    dead_symbolics: dict[str, int] = {}  # symbolic -> first dropped iteration

    def node_iterations(node) -> list[tuple[str, int]]:
        return [
            (inst.symbolic, inst.iteration)
            for inst in node.instances
            if inst.symbolic is not None
        ]

    for node in graph.nodes:
        # Skip nodes of iterations at/after a dropped one.
        dropped = any(
            sym in dead_symbolics and it >= dead_symbolics[sym]
            for sym, it in node_iterations(node)
        )
        if dropped:
            node_stage[node.node_id] = None
            continue
        min_stage = 0
        feasible = True
        for pred in prec_in[node.node_id]:
            pred_stage = node_stage.get(pred)
            if pred_stage is None:
                feasible = False
                break
            min_stage = max(min_stage, pred_stage + 1)
        hf = sum(target.hf(i.cost) for i in node.instances)
        hl = sum(target.hl(i.cost) for i in node.instances)
        hh = sum(i.cost.hash_ops for i in node.instances)
        bits = sum(
            table_memory_bits(info.tables[i.table], info)
            for i in node.instances if i.table is not None
        ) + sum(
            fixed_bits(info.registers[fam])
            for fam, _idx in {reg for i in node.instances for reg in i.registers}
        )
        chosen: int | None = None
        if feasible:
            for s in range(min_stage, target.stages):
                if stateful_used[s] + hf > target.stateful_alus_per_stage:
                    continue
                if stateless_used[s] + hl > target.stateless_alus_per_stage:
                    continue
                if hash_used[s] + hh > target.hash_units_per_stage:
                    continue
                if memory_used[s] + bits > target.memory_bits_per_stage:
                    continue
                if any(node_stage.get(other) == s for other in excl[node.node_id]):
                    continue
                chosen = s
                break
        node_stage[node.node_id] = chosen
        if chosen is None:
            elastic = node_iterations(node)
            if not elastic:
                raise CompileError(
                    f"greedy layout: inelastic unit {node.label!r} does not fit"
                )
            for sym, it in elastic:
                prior = dead_symbolics.get(sym)
                dead_symbolics[sym] = it if prior is None else min(prior, it)
        else:
            stateful_used[chosen] += hf
            stateless_used[chosen] += hl
            hash_used[chosen] += hh
            memory_used[chosen] += bits

    # Drop *whole* iterations when any of their units was dropped
    # (conditional constraint #7), and everything after them (#16).
    active: dict[tuple[str, int], bool] = {}
    for inst in instances:
        if inst.symbolic is None:
            continue
        key = (inst.symbolic, inst.iteration)
        placed = node_stage[graph.node_of(inst).node_id] is not None
        active[key] = active.get(key, True) and placed
    for sym, count in counts.items():
        alive = True
        for i in range(count):
            alive = alive and active.get((sym, i), False)
            active[(sym, i)] = alive

    instance_stage: dict[int, int | None] = {}
    for inst in instances:
        stage = node_stage[graph.node_of(inst).node_id]
        if inst.symbolic is not None and not active[(inst.symbolic, inst.iteration)]:
            stage = None
        instance_stage[inst.uid] = stage

    # -- memory split ------------------------------------------------------------
    # Register instances present per stage.
    stage_regs: dict[int, list[tuple[str, int]]] = {}
    reg_stage: dict[tuple[str, int], int] = {}
    for inst in instances:
        stage = instance_stage[inst.uid]
        if stage is None:
            continue
        for reg in inst.registers:
            if reg not in reg_stage:
                reg_stage[reg] = stage
                stage_regs.setdefault(stage, []).append(reg)

    # Equal split, by cell width, of what first-fit left uncommitted in
    # the stage (a dropped iteration's commitment stays unused).
    share_cells: dict[tuple[str, int], int] = {}
    for stage, regs in stage_regs.items():
        elastic = [r for r in regs if info.registers[r[0]].is_elastic_size]
        spare = target.memory_bits_per_stage - memory_used[stage]
        for fam, idx in elastic:
            width = info.registers[fam].cell_bits
            share_cells[(fam, idx)] = 1 + spare // len(elastic) // width

    # Families with fixed sizes keep them; elastic families take the
    # minimum share across their instances (equal-size rule).
    family_cells: dict[str, int] = {}
    for (fam, _idx), cells in share_cells.items():
        family_cells[fam] = min(family_cells.get(fam, 1 << 62), cells)
    # Families sized by the *same symbol* must also agree across
    # families — the symbol has one value. NetCache's kv_keys/kv_val0/
    # kv_val1 are all [kv_cols]: letting them diverge leaves the data
    # plane with key arrays longer than the value arrays they index.
    symbol_cells: dict[str, int] = {}
    for fam, cells in family_cells.items():
        size = info.registers[fam].decl.size
        if isinstance(size, ast.Name):
            symbol_cells[size.ident] = min(
                symbol_cells.get(size.ident, 1 << 62), cells
            )
    # ... and stay under the cap its ``assume``s put on it.
    for sym, bound in extract_numeric_bounds(info).items():
        if sym in symbol_cells and bound.upper is not None:
            symbol_cells[sym] = min(symbol_cells[sym], bound.upper)
    for fam in family_cells:
        size = info.registers[fam].decl.size
        if isinstance(size, ast.Name):
            family_cells[fam] = symbol_cells[size.ident]
    register_alloc: dict[tuple[str, int], tuple[int, int]] = {}
    for (fam, idx), stage in reg_stage.items():
        reg = info.registers[fam]
        if not reg.is_elastic_size:
            cells = int(eval_static(reg.decl.size, info.consts))
        else:
            cells = family_cells[fam]
        register_alloc[(fam, idx)] = (stage, cells)

    # -- symbolic values ------------------------------------------------------------
    symbol_values: dict[str, int] = {}
    for sym, count in counts.items():
        symbol_values[sym] = sum(1 for i in range(count) if active.get((sym, i)))
    for fam, cells in family_cells.items():
        reg = info.registers[fam]
        if isinstance(reg.decl.size, ast.Name):
            symbol_values.setdefault(reg.decl.size.ident, cells)
    for sym in info.symbolics:
        symbol_values.setdefault(sym, 0)
    violated = false_assumes(info, symbol_values)
    if violated:
        raise CompileError(
            "greedy layout: assume " + "; assume ".join(violated)
            + " does not hold at "
            + ", ".join(f"{k}={v}" for k, v in sorted(symbol_values.items()))
        )

    placed = sum(1 for s in instance_stage.values() if s is not None)
    return GreedyResult(
        symbol_values=symbol_values,
        instance_stage=instance_stage,
        register_alloc=register_alloc,
        placed_count=placed,
        dropped_count=len(instance_stage) - placed,
        instances=instances,
    )
