"""Human-readable layout reports (Figure-7-style stage maps)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.ir import module_of_instance
from .program import CompiledProgram

__all__ = ["layout_report", "stats_report", "summary_line",
           "ModuleAttribution", "module_attribution", "module_report"]


def summary_line(compiled: CompiledProgram) -> str:
    """One line: chosen symbolic values plus timing."""
    syms = ", ".join(f"{k}={v}" for k, v in sorted(compiled.symbol_values.items()))
    return (
        f"{compiled.source_name}: {syms} "
        f"(objective {compiled.solution.objective:.4g}, "
        f"{compiled.stats.total_seconds:.2f}s, "
        f"ILP {compiled.stats.ilp_variables} vars / "
        f"{compiled.stats.ilp_constraints} constrs)"
    )


def stats_report(compiled: CompiledProgram) -> str:
    """Per-phase wall-time table (``p4all compile --stats``).

    Phases served from a :class:`~repro.core.cache.CompileCache` are
    flagged ``(cached)`` — their time is the lookup, not the work; a
    compile served whole from the layout tier ran no phase and shows the
    lookup alone. When this compile ran the ILP the last line says why it
    took what it took: nodes, seconds, which path the layout took (an
    ``lp-certified`` start ran no search, a ``seeded`` search began from
    the start, neither means a plain search), and the gap left to the
    proven bound on the utility."""
    s = compiled.stats
    solution = compiled.solution
    front = " (cached)" if s.frontend_cached else ""
    bound = " (cached)" if s.bounds_cached else ""
    rows = [
        ("parse + check", s.parse_seconds, front),
        ("IR + dependencies", s.ir_seconds, front),
        ("unroll bounds", s.bounds_seconds, bound),
        ("ILP build", s.ilp_build_seconds, ""),
        ("ILP solve", s.ilp_solve_seconds, ""),
        ("codegen", s.codegen_seconds, ""),
    ]
    lines = [f"Compile phases for {compiled.source_name}:"]
    if s.layout_cached:
        lines[0] += " (served from layout cache)"
        rows = [("layout-cache lookup", s.lookup_seconds, "")]
    width = max(len(name) for name, _, _ in rows)
    for name, seconds, note in rows:
        lines.append(f"  {name:<{width}}  {seconds * 1e3:10.3f} ms{note}")
    lines.append(f"  {'total':<{width}}  {s.total_seconds * 1e3:10.3f} ms")
    lines.append(
        f"  ILP size: {s.ilp_variables} variables, "
        f"{s.ilp_constraints} constraints "
        f"({solution.backend or 'n/a'})"
    )
    if s.ilp_solve_seconds and solution.backend != "greedy":
        search = f"  ILP search: {solution.nodes_explored} nodes in " \
                 f"{solution.solve_seconds:.3f} s"
        if solution.incumbent_source:
            search += f" ({solution.incumbent_source})"
        if solution.mip_gap is not None:
            search += f", gap {solution.mip_gap:.4%} to bound " \
                      f"{solution.mip_dual_bound:.6g}"
        lines.append(search)
    return "\n".join(lines)


def layout_report(compiled: CompiledProgram) -> str:
    """Multi-line per-stage report: actions, registers, memory use."""
    target = compiled.target
    lines = [
        f"Layout of {compiled.source_name} on {target.name} "
        f"(S={target.stages}, M={target.memory_bits_per_stage} b/stage)",
        f"  symbolic values: "
        + ", ".join(f"{k}={v}" for k, v in sorted(compiled.symbol_values.items())),
        f"  ILP: {compiled.stats.ilp_variables} variables, "
        f"{compiled.stats.ilp_constraints} constraints, "
        f"solved in {compiled.stats.ilp_solve_seconds:.3f}s "
        f"({compiled.solution.backend})",
    ]
    for stage in range(target.stages):
        units = compiled.units_in_stage(stage)
        regs = compiled.registers_in_stage(stage)
        if not units and not regs:
            continue
        mem = sum(r.size_bits for r in regs)
        pct = 100.0 * mem / target.memory_bits_per_stage
        lines.append(f"  stage {stage}: memory {mem} b ({pct:.1f}%)")
        for unit in units:
            lines.append(f"    action   {unit.label}")
        for reg in regs:
            lines.append(
                f"    register {reg.name}: {reg.cells} x {reg.width} b"
            )
    return "\n".join(lines)


@dataclass
class ModuleAttribution:
    """Resources one linked module consumes in a solved layout."""

    module: str
    units: int = 0
    stages: list[int] = field(default_factory=list)
    memory_bits: int = 0
    register_cells: int = 0
    stateful_alus: int = 0
    stateless_alus: int = 0
    hash_ops: int = 0
    symbols: dict[str, int] = field(default_factory=dict)
    utility: float = 0.0
    utility_share: float = 0.0

    def to_dict(self) -> dict:
        return {
            "units": self.units,
            "stages": list(self.stages),
            "memory_bits": self.memory_bits,
            "register_cells": self.register_cells,
            "stateful_alus": self.stateful_alus,
            "stateless_alus": self.stateless_alus,
            "hash_ops": self.hash_ops,
            "symbols": dict(self.symbols),
            "utility": self.utility,
            "utility_share": self.utility_share,
        }


def module_attribution(
    compiled: CompiledProgram,
) -> dict[str, ModuleAttribution]:
    """Attribute stages, memory, and ALUs of a layout per linked module.

    Returns an empty dict for programs without module identity (plain
    string compiles). Units and registers nothing claims land in the
    ``"(app)"`` bucket, which is omitted when empty.
    """
    namespace = getattr(compiled.info, "namespace", None)
    if namespace is None:
        return {}
    target = compiled.target
    buckets = {
        name: ModuleAttribution(module=name)
        for name in list(namespace.modules) + ["(app)"]
    }
    stage_sets: dict[str, set] = {name: set() for name in buckets}

    def bucket(owner):
        return buckets[owner if owner in buckets else "(app)"]

    for unit in compiled.units:
        owner = module_of_instance(unit.instance, namespace) or "(app)"
        b = bucket(owner)
        b.units += 1
        stage_sets[b.module].add(unit.stage)
        alus = target.alu_breakdown(unit.instance.cost)
        b.stateful_alus += alus["stateful"]
        b.stateless_alus += alus["stateless"]
        b.hash_ops += alus["hash"]
    for reg in compiled.registers:
        b = bucket(namespace.registers.get(reg.family, "(app)"))
        b.memory_bits += reg.size_bits
        b.register_cells += reg.cells
        stage_sets[b.module].add(reg.stage)
    for sym, owner in namespace.symbolics.items():
        if owner in buckets and sym in compiled.symbol_values:
            buckets[owner].symbols[sym] = compiled.symbol_values[sym]

    breakdown = getattr(compiled.solution, "utility_breakdown", {}) or {}
    total = sum(breakdown.values())
    for module, value in breakdown.items():
        if module in buckets:
            buckets[module].utility = value
            buckets[module].utility_share = value / total if total else 0.0
    for name, b in buckets.items():
        b.stages = sorted(stage_sets[name])
    app = buckets["(app)"]
    if not (app.units or app.memory_bits or app.utility):
        del buckets["(app)"]
    return buckets


def module_report(compiled: CompiledProgram) -> str:
    """Per-module attribution table for a linked compile."""
    attribution = module_attribution(compiled)
    if not attribution:
        return f"{compiled.source_name}: no module identity (not linked)"
    lines = [f"Per-module attribution for {compiled.source_name}:"]
    header = (f"  {'module':<12} {'units':>5} {'stages':<10} "
              f"{'memory':>10} {'ALUs F/L':>9} {'utility (share)':>18}")
    lines.append(header)
    for name, b in attribution.items():
        stages = (f"{b.stages[0]}-{b.stages[-1]}" if len(b.stages) > 1
                  else (str(b.stages[0]) if b.stages else "-"))
        syms = ", ".join(f"{k}={v}" for k, v in sorted(b.symbols.items()))
        lines.append(
            f"  {name:<12} {b.units:>5} {stages:<10} "
            f"{b.memory_bits:>8} b {b.stateful_alus:>4}/{b.stateless_alus:<4} "
            f"{b.utility:>10.4g} ({100.0 * b.utility_share:.1f}%)"
            + (f"  [{syms}]" if syms else "")
        )
    return "\n".join(lines)
