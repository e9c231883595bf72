"""End-to-end P4All compilation driver.

One pipeline (:func:`_compile`, Figure 8) with two inputs:

1. parse + semantic checks (:mod:`repro.lang`),
2. elaboration and dependency analysis (:mod:`repro.analysis`),
3. loop-unrolling upper bounds (§4.2),
4. the layout — the ILP of §4.3, solved by HiGHS,
5. concrete-P4 code generation and stage-mapping extraction.

The inputs are a P4All string (:func:`compile_source`) and a linked
program (:func:`compile_linked`); :class:`_Unit` holds what differs
between them. Phase timings are recorded in :class:`CompileStats` —
§6.1 reports that compile time is dominated by ILP solving, which the
Figure-11 benchmark verifies.

:func:`compile_source_greedy` and :func:`compile_linked_greedy` run the
same pipeline with :func:`~repro.core.greedy.greedy_layout`'s first fit
as step 4: the baseline the ILP is measured against, and the
degraded-but-safe artifact the elastic runtime falls back to when the
ILP times out. A greedy compile is fully assembled (loadable into the
PISA simulator, validated by :func:`~repro.core.validate.validate_layout`),
its solution carries ``status=FEASIBLE``, and it shares a cache's
front-end tiers but never its layout tier, so an ILP compile of the same
source and target is never answered with a first fit.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Callable

from ..analysis import build_ir, compute_upper_bounds
from ..lang import check_program, parse_program
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..pisa.resources import TargetSpec
from .cache import CompileCache
from .codegen import generate_p4
from .greedy import greedy_layout
from .layout import LayoutBuilder
from .program import CompiledProgram, CompileStats, PlacedUnit, RegisterAlloc

__all__ = [
    "compile_source",
    "compile_file",
    "compile_source_greedy",
    "compile_linked",
    "compile_linked_greedy",
    "CompileOptions",
]


@dataclasses.dataclass
class CompileOptions:
    """All compiler knobs in one place."""

    entry: str = "Ingress"
    time_limit: float | None = None
    #: the prototype-mode ablation: both the unroll bounds and the layout
    #: treat every exclusion edge as a precedence edge
    exclusion_as_precedence: bool = False
    #: optional :class:`~repro.core.cache.CompileCache` — reuses
    #: front-end artifacts across recompiles and short-circuits
    #: identical compiles entirely.
    cache: CompileCache | None = None

    def replace(self, **updates) -> "CompileOptions":
        """A copy with the given fields updated (callers treat options
        as immutable once a compile starts)."""
        return dataclasses.replace(self, **updates)


@dataclasses.dataclass(frozen=True)
class _Unit:
    """What differs between the two compile inputs, a P4All string and a
    linked program; everything else is :func:`_compile`."""

    name: str
    #: what the cache tiers hash: the source itself, or the linked
    #: fingerprint as a pseudo-source, so a linked program shares the
    #: tiers unchanged with string compiles
    key: str
    #: ``() -> ast.Program`` — the linker already parsed its modules
    parse: Callable
    namespace: object = None
    utility_terms: object = None
    floors: dict | None = None
    #: linked programs run the taint-verification phase
    linked: bool = False


def _source_unit(source: str, source_name: str) -> _Unit:
    return _Unit(source_name, source,
                 lambda: parse_program(source, source_name))


def _linked_unit(linked) -> _Unit:
    return _Unit(
        linked.name, "linked:" + linked.fingerprint, lambda: linked.program,
        namespace=linked.namespace, utility_terms=linked.utility_terms,
        floors=linked.floors, linked=True,
    )


def _frontend(unit: _Unit, target, options, stats):
    """Phases 1-3: parse, check, build IR, compute unroll bounds — each
    timed once. With a :class:`CompileCache` on the options parse/check/
    IR sit behind the frontend tier (a hit costs the lookup, booked
    under ``parse_seconds``) and bounds behind the per-target tier."""
    cache = options.cache

    def build():
        t0 = time.perf_counter()
        with trace.span("compile.parse", source=unit.name):
            program = unit.parse()
            info = check_program(program)
            if unit.namespace is not None:
                info.namespace = unit.namespace
        stats.parse_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        with trace.span("compile.ir"):
            ir = build_ir(info, options.entry)
        stats.ir_seconds = time.perf_counter() - t0
        return program, info, ir

    if cache is None:
        program, info, ir = build()
    else:
        t0 = time.perf_counter()
        with trace.span("compile.frontend", source=unit.name) as span:
            (program, info, ir), hit = cache.frontend(
                unit.key, options.entry, build)
            span.set_attr("cached", hit)
        stats.frontend_cached = hit
        if hit:
            stats.parse_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    with trace.span("compile.bounds") as span:
        if cache is None:
            bounds = compute_upper_bounds(ir, target,
                                          options.exclusion_as_precedence)
        else:
            bounds, stats.bounds_cached = cache.bounds(
                unit.key, options.entry, ir, target,
                options.exclusion_as_precedence)
            span.set_attr("cached", stats.bounds_cached)
    stats.bounds_seconds = time.perf_counter() - t0
    stats.analysis_seconds = stats.ir_seconds + stats.bounds_seconds
    return program, info, ir, bounds


def _assemble(
    compiled: CompiledProgram,
    instances,
    solution,
) -> None:
    """Phase 5: placed units, register allocation, codegen, verification."""
    info = compiled.info
    stats = compiled.stats

    t0 = time.perf_counter()
    with trace.span("compile.codegen"):
        # Placed units: active instances with a stage, in (stage, order)
        # order.
        for inst in instances:
            stage = solution.instance_stage.get(inst.uid)
            if stage is None:
                continue
            if inst.symbolic is not None and not solution.iteration_active.get(
                (inst.symbolic, inst.iteration), False
            ):
                continue
            compiled.units.append(PlacedUnit(instance=inst, stage=stage))
        compiled.units.sort(key=lambda u: (u.stage, u.instance.source_order))

        for (family, index), (stage, cells) in sorted(
            solution.register_alloc.items()
        ):
            width = info.registers[family].cell_bits
            compiled.registers.append(
                RegisterAlloc(family=family, index=index, stage=stage,
                              cells=cells, width=width)
            )

        compiled.p4_source = generate_p4(compiled)
    stats.codegen_seconds = time.perf_counter() - t0

    from ..analysis.bounds_check import check_index_bounds
    from .validate import validate_layout

    with trace.span("compile.validate"):
        # §7 verification: every elastic-array index provably in bounds
        # at the chosen symbolic values, then every resource and
        # dependency rule re-checked (catches formulation bugs at the
        # source).
        check_index_bounds(
            compiled.ir,
            {sym: compiled.symbol_values.get(sym, 1)
             for sym in compiled.bounds.as_counts()},
        )
        validate_layout(compiled)


def _verify_linked(compiled, key, target, options, stats) -> None:
    """Taint-verification phase for linked compiles (cached tier).

    Runs :func:`~repro.core.validate.verify_taint` — the depgraph-level
    taint pass plus the independent plan-level pass and their
    cross-check — through the CompileCache ``verify`` tier when a cache
    is installed, so a warm recompile of an unchanged program at the
    same symbolic values never re-verifies. Also invoked on layout-tier
    hits for exactly that reason.
    """
    from .validate import verify_taint

    cache = options.cache
    t0 = time.perf_counter()
    with trace.span("compile.verify", source=compiled.source_name) as span:
        if cache is not None:
            result, hit = cache.verify(
                key, options.entry, target,
                compiled.symbol_values,
                lambda: verify_taint(compiled),
            )
        else:
            result, hit = verify_taint(compiled), False
        span.set_attrs(cached=hit, flows=len(result.flows))
    stats.verify_seconds = time.perf_counter() - t0
    stats.verify_cached = hit
    compiled.verify = result

    obs_metrics.histogram(
        "p4all_verify_seconds",
        help="Wall time of the compile-time taint-verification phase.",
    ).observe(stats.verify_seconds)
    flow_counter = obs_metrics.counter(
        "p4all_verify_flows_total",
        help="Verified compiles by isolation outcome: clean, or one "
             "count per allowed cross-module flow.",
        labels=("result",),
    )
    if result.flows:
        for _flow in result.flows:
            flow_counter.inc(result="flow")
    else:
        flow_counter.inc(result="clean")


def _record_compile_metrics(stats: CompileStats, backend: str) -> None:
    """Per-compile counters and phase-latency histograms."""
    obs_metrics.counter(
        "p4all_compiles_total",
        help="Completed compiles, by the solver that laid the program out "
             "and layout-cache outcome.",
        labels=("backend", "cached"),
    ).inc(backend=backend, cached=str(stats.layout_cached).lower())
    phases = obs_metrics.histogram(
        "p4all_compile_phase_seconds",
        help="Wall time per compiler phase (Figure 8 pipeline).",
        labels=("phase",),
    )
    if stats.layout_cached:
        # A hit ran no phase: what it cost is the lookup (and, linked,
        # the verify-tier lookup).
        phases.observe(stats.lookup_seconds, phase="layout_lookup")
        if stats.verify_cached:
            phases.observe(stats.verify_seconds, phase="verify")
        return
    phases.observe(stats.parse_seconds, phase="parse")
    phases.observe(stats.ir_seconds, phase="ir")
    phases.observe(stats.bounds_seconds, phase="bounds")
    phases.observe(stats.ilp_build_seconds, phase="ilp_build")
    phases.observe(stats.ilp_solve_seconds, phase="ilp_solve")
    phases.observe(stats.codegen_seconds, phase="codegen")
    phases.observe(stats.verify_seconds, phase="verify")


def _layout_hit(cached: CompiledProgram, lookup_seconds: float) -> CompiledProgram:
    """The cached artifact, shared, under a stats record of *this* call:
    the lookup is all it spent (the compile that filled the cache keeps
    its own record on the cached artifact)."""
    return dataclasses.replace(cached, stats=CompileStats(
        lookup_seconds=lookup_seconds,
        ilp_variables=cached.stats.ilp_variables,
        ilp_constraints=cached.stats.ilp_constraints,
        layout_cached=True,
    ))


def _layout(unit, program, info, ir, bounds, target, options, stats,
            greedy: bool):
    """Phase 4: ``(instances, solution)`` from the layout ILP, or from the
    first fit for a greedy compile."""
    optimize = program.optimize()
    utility = optimize.utility if optimize is not None else None
    if greedy:
        t0 = time.perf_counter()
        with trace.span("compile.greedy_layout"):
            result = greedy_layout(ir, bounds, target)
        stats.ilp_solve_seconds = time.perf_counter() - t0
        return result.instances, result.to_solution(
            info.consts, utility, unit.utility_terms, stats.ilp_solve_seconds)

    t0 = time.perf_counter()
    with trace.span("compile.ilp_build"):
        builder = LayoutBuilder(ir, bounds, target,
                                options.exclusion_as_precedence)
        lm = builder.build()
    stats.ilp_build_seconds = time.perf_counter() - t0
    with trace.span("compile.ilp_solve") as span:
        solution = builder.solve(
            utility=utility,
            time_limit=options.time_limit,
            utility_terms=unit.utility_terms,
            floors=unit.floors,
        )
        span.set_attrs(
            backend=solution.backend,
            status=solution.status.value,
            nodes_explored=solution.nodes_explored,
            incumbent_source=solution.incumbent_source,
            mip_dual_bound=solution.mip_dual_bound,
            mip_gap=solution.mip_gap,
        )
    stats.ilp_solve_seconds = solution.solve_seconds
    # Counted after the solve: linearizing the utility adds constraints.
    stats.ilp_variables = lm.model.num_variables
    stats.ilp_constraints = lm.model.num_constraints
    return lm.instances, solution


def _compile(unit: _Unit, target: TargetSpec,
             options: CompileOptions | None,
             greedy: bool = False) -> CompiledProgram:
    """The Figure-8 pipeline, once: layout-tier lookup → front end →
    layout → assemble → verify → layout-tier store → metrics. ``greedy``
    takes the first fit for the layout and bypasses the layout tier."""
    options = options or CompileOptions()
    cache = options.cache
    layouts = None if greedy else cache
    with trace.span("compile", source=unit.name, target=target.name,
                    linked=unit.linked) as span:
        t0 = time.perf_counter()
        cached = (layouts.get_layout(unit.key, target, options)
                  if layouts else None)
        if cached is not None:
            span.set_attr("layout_cached", True)
            compiled = _layout_hit(cached, time.perf_counter() - t0)
            if unit.linked:
                # The verify tier answers from cache (same program, same
                # symbol values): isolation stays checked on every build
                # without re-running the passes.
                _verify_linked(compiled, unit.key, target, options,
                               compiled.stats)
        else:
            stats = CompileStats()
            program, info, ir, bounds = _frontend(unit, target, options, stats)
            instances, solution = _layout(
                unit, program, info, ir, bounds, target, options, stats,
                greedy)
            compiled = CompiledProgram(
                source_name=unit.name,
                target=target,
                info=info,
                ir=ir,
                bounds=bounds,
                solution=solution,
                stats=stats,
            )
            _assemble(compiled, instances, solution)
            if unit.linked:
                _verify_linked(compiled, unit.key, target, options, stats)
            if layouts is not None:
                layouts.put_layout(unit.key, target, options, compiled)
            span.set_attrs(status=solution.status.value,
                           symbols=dict(solution.symbol_values))
        span.set_attr("backend", compiled.solution.backend)
        _record_compile_metrics(compiled.stats, compiled.solution.backend)
        return compiled


def compile_source(
    source: str,
    target: TargetSpec,
    options: CompileOptions | None = None,
    source_name: str = "<string>",
) -> CompiledProgram:
    """Compile a P4All program for ``target``; returns the full artifact."""
    return _compile(_source_unit(source, source_name), target, options)


def compile_source_greedy(
    source: str,
    target: TargetSpec,
    options: CompileOptions | None = None,
    source_name: str = "<string>",
) -> CompiledProgram:
    """:func:`compile_source` with the first-fit layout instead of the
    ILP, everything else the same."""
    return _compile(_source_unit(source, source_name), target, options,
                    greedy=True)


def compile_file(
    path: str | Path,
    target: TargetSpec,
    options: CompileOptions | None = None,
) -> CompiledProgram:
    """Compile a ``.p4all`` file."""
    path = Path(path)
    return compile_source(
        path.read_text(), target, options=options, source_name=str(path)
    )


def compile_linked(
    linked,
    target: TargetSpec,
    options: CompileOptions | None = None,
) -> CompiledProgram:
    """Compile a :class:`~repro.link.LinkedProgram` for ``target``.

    The same pipeline from semantic checking onward — the linker already
    ran the per-module front end — with the objective built as the
    explicit weighted sum of per-module utility terms (per-module floors
    become constraints), the solution carrying a per-module utility
    breakdown, and the taint-verification phase at the end. ``linked``
    is duck-typed (program/namespace/fingerprint/utility_terms/floors/
    name) so this module never imports :mod:`repro.link`.
    """
    return _compile(_linked_unit(linked), target, options)


def compile_linked_greedy(
    linked,
    target: TargetSpec,
    options: CompileOptions | None = None,
) -> CompiledProgram:
    """:func:`compile_linked` with the first-fit layout instead of the
    ILP."""
    return _compile(_linked_unit(linked), target, options, greedy=True)
