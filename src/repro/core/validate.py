"""Standalone validation of compiled layouts.

:func:`validate_layout` re-checks a :class:`CompiledProgram` against
every rule the layout ILP encoded — independently of the ILP, from the
artifact alone. The PISA simulator runs the same checks at load time;
this module makes them available without building a pipeline (and is
what the compiler driver's ``verify`` flag and several tests use).

Checks: per-stage memory (registers + table SRAM), stateful/stateless
ALUs, hash units, PHV capacity, register/action co-location, equal sizes
within register families, dependency ordering (precedence strictly
increasing, exclusions in distinct stages), iteration-prefix
activation, and every ``assume`` at the chosen symbol values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.assumes import false_assumes
from ..analysis.dependencies import build_dependency_graph
from ..analysis.ir import instantiate, module_of_instance
from ..analysis.taint import cross_module_flows, propagate_taint
from ..lang.symbols import eval_static
from ..pisa.plan import plan_taint
from .errors import CompileError
from .program import CompiledProgram
from .tablemem import table_memory_bits

__all__ = [
    "validate_layout",
    "LayoutValidationError",
    "VerifyResult",
    "TaintMismatchError",
    "verify_taint",
]


class LayoutValidationError(CompileError):
    """A compiled layout violates a resource or dependency rule."""


class TaintMismatchError(CompileError):
    """The depgraph-level and plan-level taint passes disagree.

    Both passes solve the same monotone dataflow equations, one over the
    elaborated action instances and one over the lowered execution-plan
    units, so a mismatch means lowering changed the program's dataflow —
    a compiler bug that must fail the build loudly, never a property of
    the input program.
    """


def _fail(message: str) -> None:
    raise LayoutValidationError(message)


def validate_layout(
    compiled: CompiledProgram,
    hash_unit_limits: bool = True,
    table_memory: bool = True,
) -> None:
    """Raise :class:`LayoutValidationError` on any violated rule.

    ``hash_unit_limits``/``table_memory`` mirror the corresponding
    :class:`~repro.core.layout.LayoutOptions` flags, so layouts compiled
    with an extension disabled validate under the same rules.
    """
    target = compiled.target
    info = compiled.info

    # -- per-stage resource budgets ----------------------------------------
    for stage in range(target.stages):
        units = compiled.units_in_stage(stage)
        regs = compiled.registers_in_stage(stage)
        memory = sum(r.size_bits for r in regs)
        if table_memory:
            memory += sum(
                table_memory_bits(info.tables[u.instance.table], info)
                for u in units
                if u.instance.table is not None
            )
        if memory > target.memory_bits_per_stage:
            _fail(f"stage {stage}: memory {memory} exceeds "
                  f"{target.memory_bits_per_stage} bits")
        stateful = sum(target.hf(u.instance.cost) for u in units)
        if stateful > target.stateful_alus_per_stage:
            _fail(f"stage {stage}: {stateful} stateful ALUs exceed "
                  f"{target.stateful_alus_per_stage}")
        stateless = sum(target.hl(u.instance.cost) for u in units)
        if stateless > target.stateless_alus_per_stage:
            _fail(f"stage {stage}: {stateless} stateless ALUs exceed "
                  f"{target.stateless_alus_per_stage}")
        if hash_unit_limits:
            hashes = sum(u.instance.cost.hash_ops for u in units)
            if hashes > target.hash_units_per_stage:
                _fail(f"stage {stage}: {hashes} hash ops exceed "
                      f"{target.hash_units_per_stage} units")

    # -- PHV ---------------------------------------------------------------
    env = dict(info.consts)
    env.update(compiled.symbol_values)
    phv_bits = 0
    for fd in info.metadata.values():
        if fd.array_size is None:
            phv_bits += fd.width
        else:
            phv_bits += fd.width * int(eval_static(fd.array_size, env))
    phv_bits += sum(info.header_fields.values())
    if phv_bits > target.phv_bits:
        _fail(f"PHV allocation {phv_bits} exceeds {target.phv_bits} bits")

    # -- register placement ---------------------------------------------------
    reg_stage = {(r.family, r.index): r.stage for r in compiled.registers}
    family_sizes: dict[str, set[int]] = {}
    for reg in compiled.registers:
        family_sizes.setdefault(reg.family, set()).add(reg.cells)
    for family, sizes in family_sizes.items():
        if len(sizes) > 1:
            _fail(f"register family {family!r} has unequal sizes {sorted(sizes)}")
    for unit in compiled.units:
        for fam, idx in unit.instance.registers:
            placed = reg_stage.get((fam, idx))
            if placed is None:
                _fail(f"unit {unit.label} touches unallocated register "
                      f"{fam}[{idx}]")
            if placed != unit.stage:
                _fail(f"unit {unit.label} in stage {unit.stage} touches "
                      f"register {fam}[{idx}] in stage {placed}")

    # -- dependency ordering ----------------------------------------------------
    instances = [u.instance for u in compiled.units]
    stage_of_uid = {u.instance.uid: u.stage for u in compiled.units}
    graph = build_dependency_graph(sorted(instances, key=lambda i: i.source_order))
    for src, dst in graph.precedence_edges():
        s_src = stage_of_uid[src.instances[0].uid]
        s_dst = stage_of_uid[dst.instances[0].uid]
        if not s_src < s_dst:
            _fail(f"precedence violated: {src.label} (stage {s_src}) must "
                  f"precede {dst.label} (stage {s_dst})")
    for a, b in graph.exclusion_edges():
        s_a = stage_of_uid[a.instances[0].uid]
        s_b = stage_of_uid[b.instances[0].uid]
        if s_a == s_b:
            _fail(f"exclusion violated: {a.label} and {b.label} share "
                  f"stage {s_a}")

    # -- iteration activation forms a prefix -----------------------------------
    by_symbolic: dict[str, set[int]] = {}
    for inst in instances:
        if inst.symbolic is not None:
            by_symbolic.setdefault(inst.symbolic, set()).add(inst.iteration)
    for symbolic, iterations in by_symbolic.items():
        expected = set(range(len(iterations)))
        if iterations != expected:
            _fail(f"iterations of {symbolic!r} are not a prefix: "
                  f"{sorted(iterations)}")
        if compiled.symbol_values.get(symbolic) != len(iterations):
            _fail(f"symbolic {symbolic!r} value "
                  f"{compiled.symbol_values.get(symbolic)} != "
                  f"{len(iterations)} placed iterations")

    # -- the user's assumes -------------------------------------------------------
    for clause in false_assumes(info, compiled.symbol_values):
        _fail(f"assume {clause} does not hold at the chosen symbol values")


# ---------------------------------------------------------------------------
# Taint verification (cross-tenant isolation), driver-level.


@dataclass
class _PlanUnitView:
    """Effect surface of one placed unit, shaped like a plan unit."""

    module: "str | None"
    reads: frozenset
    writes: frozenset
    registers: frozenset


@dataclass
class VerifyResult:
    """Outcome of the compile-time taint verification phase.

    ``flows`` are the cross-module flows found in the artifact (already
    downgraded by the linker — a disallowed flow never reaches the
    compiler); ``field_taint``/``register_taint`` are the depgraph-level
    labels; ``agree`` records that the independent plan-level pass
    reproduced them (it is always ``True`` on a returned result —
    disagreement raises :class:`TaintMismatchError` instead).
    """

    modules: list = field(default_factory=list)
    flows: list = field(default_factory=list)
    field_taint: dict = field(default_factory=dict)
    register_taint: dict = field(default_factory=dict)
    agree: bool = True

    @property
    def clean(self) -> bool:
        return not self.flows

    def influencers(self, module: str) -> set:
        """Modules whose state influences any sink owned by ``module``."""
        return {f.source for f in self.flows if f.sink_module == module}

    def flow_matrix(self) -> dict:
        """``{(source, sink): count}`` over the verified flows."""
        matrix: dict = {}
        for f in self.flows:
            key = (f.source, f.sink_module)
            matrix[key] = matrix.get(key, 0) + 1
        return matrix


def verify_taint(compiled: CompiledProgram) -> VerifyResult:
    """Verify cross-tenant isolation on a compiled artifact.

    Runs the depgraph-level taint pass (:mod:`repro.analysis.taint`)
    over the instances elaborated at the *chosen* symbolic values, and
    the independent plan-level pass (:func:`repro.pisa.plan.plan_taint`)
    over the placed units' effect sets, then cross-checks the two label
    maps. Programs without a module namespace (single-program compiles)
    verify trivially.
    """
    ns = compiled.namespace
    if ns is None or not ns.modules:
        return VerifyResult()

    counts = {sym: compiled.symbol_values.get(sym, 1)
              for sym in compiled.ir.loop_symbolics}
    dep = propagate_taint(instantiate(compiled.ir, counts), ns)
    dep_fields, dep_regs = dep.normalized()

    views = [
        _PlanUnitView(
            module=module_of_instance(u.instance, ns),
            reads=frozenset(u.instance.reads),
            writes=frozenset(u.instance.writes),
            registers=frozenset(f for f, _ in u.instance.registers),
        )
        for u in compiled.units
    ]
    plan_fields, plan_regs = plan_taint(views, ns.registers)

    for kind, ours, theirs in (("field", dep_fields, plan_fields),
                               ("register", dep_regs, plan_regs)):
        if ours == theirs:
            continue
        diverging = sorted(
            name for name in set(ours) | set(theirs)
            if ours.get(name) != theirs.get(name)
        )
        name = diverging[0]
        raise TaintMismatchError(
            f"taint verification mismatch on {kind} '{name}': depgraph "
            f"pass says {sorted(ours.get(name, ()))}, plan pass says "
            f"{sorted(theirs.get(name, ()))} — lowering changed the "
            f"program's dataflow ({len(diverging)} diverging {kind}s)"
        )

    flows = cross_module_flows(dep, ns)
    return VerifyResult(
        modules=list(ns.modules),
        flows=flows,
        field_taint=dep_fields,
        register_taint=dep_regs,
        agree=True,
    )
