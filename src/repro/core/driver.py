"""End-to-end P4All compilation driver.

``compile_source`` runs the full pipeline of Figure 8:

1. parse + semantic checks (:mod:`repro.lang`),
2. elaboration and dependency analysis (:mod:`repro.analysis`),
3. loop-unrolling upper bounds (§4.2),
4. layout ILP construction and solving (§4.3),
5. concrete-P4 code generation and stage-mapping extraction.

Phase timings are recorded in :class:`CompileStats` — §6.1 reports that
compile time is dominated by ILP solving, which the Figure-11 benchmark
verifies.

Besides the exact ILP backends (``auto``/``scipy``/``bb``), the driver
accepts ``backend="greedy"``: the same front end feeding
:func:`~repro.core.greedy.greedy_layout` instead of the ILP. The result
is a fully assembled :class:`CompiledProgram` (loadable into the PISA
simulator, validated by :func:`~repro.core.validate.validate_layout`)
whose solution carries ``status=FEASIBLE`` — the degraded-but-safe
artifact the elastic runtime falls back to when the ILP times out.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

from ..analysis import build_ir, compute_upper_bounds
from ..analysis.unroll import UnrollOptions
from ..lang import check_program, parse_program
from ..ilp import SolveStatus
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..pisa.resources import TargetSpec
from .cache import CompileCache
from .codegen import generate_p4
from .errors import CompileError
from .layout import LayoutBuilder, LayoutOptions, LayoutSolution
from .program import CompiledProgram, CompileStats, PlacedUnit, RegisterAlloc
from .utility import utility_at

__all__ = [
    "compile_source",
    "compile_file",
    "compile_source_greedy",
    "compile_linked",
    "compile_linked_greedy",
    "CompileOptions",
]


class CompileOptions:
    """All compiler knobs in one place."""

    def __init__(
        self,
        entry: str = "Ingress",
        backend: str = "auto",
        time_limit: float | None = None,
        layout: LayoutOptions | None = None,
        unroll: UnrollOptions | None = None,
        verify: bool = True,
        cache: CompileCache | None = None,
        warm_start: LayoutSolution | None = None,
    ):
        self.entry = entry
        #: ILP backend (``auto``/``scipy``/``bb``) or ``greedy`` for the
        #: first-fit heuristic layout (no ILP at all).
        self.backend = backend
        self.time_limit = time_limit
        self.layout = layout or LayoutOptions()
        self.unroll = unroll or UnrollOptions(
            exclusion_as_precedence=self.layout.exclusion_as_precedence
        )
        #: re-check the produced layout against every resource/dependency
        #: rule (cheap; catches formulation bugs at the source).
        self.verify = verify
        #: optional :class:`~repro.core.cache.CompileCache` — reuses
        #: front-end artifacts across recompiles and short-circuits
        #: identical compiles entirely.
        self.cache = cache
        #: optional previous :class:`LayoutSolution` to seed the
        #: branch-and-bound solver's incumbent (ignored by backends that
        #: cannot use it).
        self.warm_start = warm_start

    def replace(self, **updates) -> "CompileOptions":
        """A copy with the given fields updated (options are not frozen,
        but callers treat them as immutable once a compile starts)."""
        fields = dict(
            entry=self.entry,
            backend=self.backend,
            time_limit=self.time_limit,
            layout=self.layout,
            unroll=self.unroll,
            verify=self.verify,
            cache=self.cache,
            warm_start=self.warm_start,
        )
        fields.update(updates)
        return CompileOptions(**fields)


def _run_frontend(source, target, options, source_name, stats):
    """Phases 1-3: parse, check, build IR, compute unroll bounds.

    With a :class:`CompileCache` on the options, parse/check/IR are
    served from the frontend tier (one lookup instead of three phases)
    and bounds from the per-target bounds tier."""
    cache = options.cache
    if cache is not None:
        t0 = time.perf_counter()
        with trace.span("compile.frontend", source=source_name) as span:
            program, info, ir, hit = cache.frontend(
                source, options.entry, source_name
            )
            span.set_attr("cached", hit)
        stats.frontend_cached = hit
        stats.parse_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        with trace.span("compile.bounds") as span:
            bounds, bhit = cache.bounds(
                source, options.entry, ir, target, options.unroll
            )
            span.set_attr("cached", bhit)
        stats.bounds_cached = bhit
        stats.bounds_seconds = time.perf_counter() - t0
        stats.analysis_seconds = stats.bounds_seconds
        return program, info, ir, bounds

    t0 = time.perf_counter()
    with trace.span("compile.parse", source=source_name):
        program = parse_program(source, source_name)
        info = check_program(program)
    stats.parse_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    with trace.span("compile.ir"):
        ir = build_ir(info, options.entry)
    stats.ir_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    with trace.span("compile.bounds"):
        bounds = compute_upper_bounds(ir, target, options.unroll)
    stats.bounds_seconds = time.perf_counter() - t0
    stats.analysis_seconds = stats.ir_seconds + stats.bounds_seconds
    return program, info, ir, bounds


def _assemble(
    compiled: CompiledProgram,
    instances,
    solution,
    options: CompileOptions,
) -> CompiledProgram:
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

    if options.verify:
        from ..analysis.bounds_check import check_index_bounds
        from .validate import validate_layout

        with trace.span("compile.validate"):
            # §7 verification: every elastic-array index provably in
            # bounds at the chosen symbolic values.
            check_index_bounds(
                compiled.ir,
                {sym: compiled.symbol_values.get(sym, 1)
                 for sym in compiled.bounds.as_counts()},
            )

            validate_layout(
                compiled,
                hash_unit_limits=options.layout.hash_unit_limits,
                table_memory=options.layout.table_memory,
            )
    return compiled


def _verify_linked(compiled, pseudo_source, target, options, stats) -> None:
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
                pseudo_source, options.entry, target,
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
        help="Completed compiles, by layout backend and layout-cache outcome.",
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


def compile_source(
    source: str,
    target: TargetSpec,
    options: CompileOptions | None = None,
    source_name: str = "<string>",
) -> CompiledProgram:
    """Compile a P4All program for ``target``; returns the full artifact."""
    options = options or CompileOptions()
    if options.backend == "greedy":
        return compile_source_greedy(source, target, options, source_name)
    with trace.span(
        "compile",
        source=source_name,
        target=target.name,
        backend=options.backend,
    ) as span:
        cache = options.cache
        if cache is not None:
            t0 = time.perf_counter()
            cached = cache.get_layout(source, target, options)
            if cached is not None:
                span.set_attr("layout_cached", True)
                cached = _layout_hit(cached, time.perf_counter() - t0)
                _record_compile_metrics(cached.stats, options.backend)
                return cached
        stats = CompileStats()
        program, info, ir, bounds = _run_frontend(
            source, target, options, source_name, stats
        )

        t0 = time.perf_counter()
        with trace.span("compile.ilp_build"):
            builder = LayoutBuilder(ir, bounds, target, options.layout)
            lm = builder.build()
        stats.ilp_build_seconds = time.perf_counter() - t0
        stats.ilp_variables = lm.model.num_variables
        stats.ilp_constraints = lm.model.num_constraints

        optimize = program.optimize()
        utility = optimize.utility if optimize is not None else None
        with trace.span("compile.ilp_solve",
                        backend=options.backend) as solve_span:
            solution = builder.solve(
                utility=utility,
                backend=options.backend,
                time_limit=options.time_limit,
                warm_start=options.warm_start,
            )
            solve_span.set_attrs(
                status=solution.status.value,
                nodes_explored=solution.nodes_explored,
                mip_gap=solution.mip_gap,
            )
        stats.ilp_solve_seconds = solution.solve_seconds
        # Constraints may have been added during utility linearization.
        stats.ilp_variables = lm.model.num_variables
        stats.ilp_constraints = lm.model.num_constraints

        compiled = CompiledProgram(
            source_name=source_name,
            target=target,
            info=info,
            ir=ir,
            bounds=bounds,
            solution=solution,
            stats=stats,
        )
        compiled = _assemble(compiled, lm.instances, solution, options)
        if cache is not None:
            cache.put_layout(source, target, options, compiled)
        span.set_attrs(status=solution.status.value,
                       symbols=dict(solution.symbol_values))
        _record_compile_metrics(stats, options.backend)
        return compiled


def compile_source_greedy(
    source: str,
    target: TargetSpec,
    options: CompileOptions | None = None,
    source_name: str = "<string>",
) -> CompiledProgram:
    """Compile with the greedy first-fit layout instead of the ILP.

    Same front end, codegen, and verification as :func:`compile_source`;
    only the layout phase differs. Used directly and as the elastic
    runtime's fallback when the ILP backend hits its time limit.
    """
    from .greedy import greedy_layout

    options = options or CompileOptions()
    with trace.span(
        "compile",
        source=source_name,
        target=target.name,
        backend="greedy",
    ) as span:
        stats = CompileStats()
        program, info, ir, bounds = _run_frontend(
            source, target, options, source_name, stats
        )

        t0 = time.perf_counter()
        with trace.span("compile.greedy_layout"):
            result = greedy_layout(ir, bounds, target)
        stats.ilp_solve_seconds = time.perf_counter() - t0

        iteration_active = {
            (inst.symbolic, inst.iteration):
                result.instance_stage[inst.uid] is not None
            for inst in result.instances
            if inst.symbolic is not None
        }
        optimize = program.optimize()
        objective, _ = utility_at(
            result.symbol_values, info.consts,
            optimize.utility if optimize is not None else None,
        )
        solution = LayoutSolution(
            status=SolveStatus.FEASIBLE,
            objective=objective,
            symbol_values=result.symbol_values,
            node_stage={},
            instance_stage=result.instance_stage,
            register_alloc=result.register_alloc,
            iteration_active=iteration_active,
            solve_seconds=stats.ilp_solve_seconds,
            backend="greedy",
            num_variables=0,
            num_constraints=0,
        )

        compiled = CompiledProgram(
            source_name=source_name,
            target=target,
            info=info,
            ir=ir,
            bounds=bounds,
            solution=solution,
            stats=stats,
        )
        compiled = _assemble(compiled, result.instances, solution, options)
        span.set_attrs(status=solution.status.value,
                       symbols=dict(solution.symbol_values))
        _record_compile_metrics(stats, "greedy")
        return compiled


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


# ---------------------------------------------------------------------------
# Linked-program compilation. ``linked`` is duck-typed on the
# LinkedProgram surface (program/namespace/fingerprint/utility/
# utility_terms/floors/name) so this module never imports repro.link.

def _linked_pseudo_source(linked) -> str:
    """Key the bounds/layout cache tiers by the linked fingerprint.

    The tiers hash their ``source`` argument, so a stable pseudo-source
    string lets a linked program share them unchanged with string
    compiles (including ``invalidate``)."""
    return "linked:" + linked.fingerprint


def _run_frontend_linked(linked, target, options, stats):
    """Phases 2-3 for an already-parsed linked program."""
    cache = options.cache
    if cache is not None:
        t0 = time.perf_counter()
        with trace.span("compile.frontend", source=linked.name,
                        linked=True) as span:
            program, info, ir, hit = cache.linked_frontend(
                linked, options.entry
            )
            span.set_attr("cached", hit)
        stats.frontend_cached = hit
        stats.parse_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        with trace.span("compile.bounds") as span:
            bounds, bhit = cache.bounds(
                _linked_pseudo_source(linked), options.entry, ir, target,
                options.unroll,
            )
            span.set_attr("cached", bhit)
        stats.bounds_cached = bhit
        stats.bounds_seconds = time.perf_counter() - t0
        stats.analysis_seconds = stats.bounds_seconds
        return program, info, ir, bounds

    t0 = time.perf_counter()
    with trace.span("compile.parse", source=linked.name, linked=True):
        program = linked.program
        info = check_program(program)
        info.namespace = linked.namespace
    stats.parse_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    with trace.span("compile.ir"):
        ir = build_ir(info, options.entry)
    stats.ir_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    with trace.span("compile.bounds"):
        bounds = compute_upper_bounds(ir, target, options.unroll)
    stats.bounds_seconds = time.perf_counter() - t0
    stats.analysis_seconds = stats.ir_seconds + stats.bounds_seconds
    return program, info, ir, bounds


def compile_linked(
    linked,
    target: TargetSpec,
    options: CompileOptions | None = None,
) -> CompiledProgram:
    """Compile a :class:`~repro.link.LinkedProgram` for ``target``.

    Same pipeline as :func:`compile_source` from semantic checking
    onward — the linker already ran the per-module front end — with the
    objective built as the explicit weighted sum of per-module utility
    terms (per-module floors become constraints) and the solution
    carrying a per-module utility breakdown.
    """
    options = options or CompileOptions()
    if options.backend == "greedy":
        return compile_linked_greedy(linked, target, options)
    with trace.span(
        "compile",
        source=linked.name,
        target=target.name,
        backend=options.backend,
        linked=True,
    ) as span:
        cache = options.cache
        pseudo = _linked_pseudo_source(linked)
        if cache is not None:
            t0 = time.perf_counter()
            cached = cache.get_layout(pseudo, target, options)
            if cached is not None:
                span.set_attr("layout_cached", True)
                cached = _layout_hit(cached, time.perf_counter() - t0)
                if options.verify:
                    # Warm recompile: the verify tier answers from cache
                    # (same program, same symbol values), keeping the
                    # isolation property checked on every build without
                    # re-running the passes.
                    _verify_linked(cached, pseudo, target, options,
                                   cached.stats)
                _record_compile_metrics(cached.stats, options.backend)
                return cached
        stats = CompileStats()
        program, info, ir, bounds = _run_frontend_linked(
            linked, target, options, stats
        )

        t0 = time.perf_counter()
        with trace.span("compile.ilp_build"):
            builder = LayoutBuilder(ir, bounds, target, options.layout)
            lm = builder.build()
        stats.ilp_build_seconds = time.perf_counter() - t0
        stats.ilp_variables = lm.model.num_variables
        stats.ilp_constraints = lm.model.num_constraints

        with trace.span("compile.ilp_solve",
                        backend=options.backend) as solve_span:
            solution = builder.solve(
                utility=linked.utility,
                backend=options.backend,
                time_limit=options.time_limit,
                warm_start=options.warm_start,
                utility_terms=linked.utility_terms,
                floors=linked.floors,
            )
            solve_span.set_attrs(
                status=solution.status.value,
                nodes_explored=solution.nodes_explored,
                mip_gap=solution.mip_gap,
            )
        stats.ilp_solve_seconds = solution.solve_seconds
        stats.ilp_variables = lm.model.num_variables
        stats.ilp_constraints = lm.model.num_constraints

        compiled = CompiledProgram(
            source_name=linked.name,
            target=target,
            info=info,
            ir=ir,
            bounds=bounds,
            solution=solution,
            stats=stats,
        )
        compiled = _assemble(compiled, lm.instances, solution, options)
        if options.verify:
            _verify_linked(compiled, pseudo, target, options, stats)
        if cache is not None:
            cache.put_layout(pseudo, target, options, compiled)
        span.set_attrs(status=solution.status.value,
                       symbols=dict(solution.symbol_values))
        _record_compile_metrics(stats, options.backend)
        return compiled


def compile_linked_greedy(
    linked,
    target: TargetSpec,
    options: CompileOptions | None = None,
) -> CompiledProgram:
    """Greedy-layout counterpart of :func:`compile_linked`."""
    options = options or CompileOptions()
    span = trace.span("compile", source=linked.name, target=target.name,
                      backend="greedy", linked=True)
    with span:
        return _compile_linked_greedy_body(linked, target, options, span)


def _compile_linked_greedy_body(linked, target, options, span):
    from .greedy import greedy_layout

    stats = CompileStats()
    program, info, ir, bounds = _run_frontend_linked(
        linked, target, options, stats
    )

    t0 = time.perf_counter()
    with trace.span("compile.greedy_layout"):
        result = greedy_layout(ir, bounds, target)
    stats.ilp_solve_seconds = time.perf_counter() - t0

    iteration_active = {
        (inst.symbolic, inst.iteration): result.instance_stage[inst.uid] is not None
        for inst in result.instances
        if inst.symbolic is not None
    }
    objective, breakdown = utility_at(
        result.symbol_values, info.consts, linked.utility,
        linked.utility_terms,
    )
    solution = LayoutSolution(
        status=SolveStatus.FEASIBLE,
        objective=objective,
        symbol_values=result.symbol_values,
        node_stage={},
        instance_stage=result.instance_stage,
        register_alloc=result.register_alloc,
        iteration_active=iteration_active,
        solve_seconds=stats.ilp_solve_seconds,
        backend="greedy",
        num_variables=0,
        num_constraints=0,
        utility_breakdown=breakdown,
    )

    compiled = CompiledProgram(
        source_name=linked.name,
        target=target,
        info=info,
        ir=ir,
        bounds=bounds,
        solution=solution,
        stats=stats,
    )
    compiled = _assemble(compiled, result.instances, solution, options)
    if options.verify:
        _verify_linked(compiled, _linked_pseudo_source(linked), target,
                       options, stats)
    span.set_attrs(status=solution.status.value,
                   symbols=dict(solution.symbol_values))
    _record_compile_metrics(stats, "greedy")
    return compiled
