"""Reconfiguration planner: compile with retry, backoff, and fallback.

On a reconfiguration trigger the runtime must end up with *some* valid
layout — a pipeline left unconfigured drops every packet, which is worse
than any degraded layout. The planner encodes that policy around the
compile driver:

1. solve the layout ILP under ``CompileOptions.time_limit``;
2. on a structured :class:`~repro.core.errors.LayoutTimeoutError`
   (time limit expired with no incumbent) or an incumbent that placed
   nothing, retry once with the limit scaled by :data:`BACKOFF` — only
   when there is a limit to scale: the same compile again gives the
   same answer;
3. still without a layout, degrade to the greedy first fit
   (``compile_source_greedy``/``compile_linked_greedy``) — feasible and
   validated, just not utility-optimal;
4. only a genuinely infeasible program (no layout exists at any size),
   a program the compiler rejects at this target (any
   :class:`~repro.lang.errors.P4AllError` or other compile error — an
   index out of bounds at the sizes chosen, say) or a greedy failure
   surfaces as :class:`PlanError`, and the caller keeps the old
   pipeline running.

A timeout *with* an incumbent that placed something is accepted as-is:
the solver proved feasibility, just not optimality. Every attempt is
emitted on the telemetry bus.

The planner owns a :class:`~repro.core.cache.CompileCache` shared by
every compile it issues: front-end artifacts (parse/AST, IR) are reused
across recompiles of the same source, and a byte-identical (source,
target, options) recompile returns the previous artifact outright.
Cache counters are exported on the telemetry bus after each cycle as a
``compile_cache`` event.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core import (
    CompileOptions,
    CompiledProgram,
    LayoutInfeasibleError,
    LayoutTimeoutError,
    compile_linked,
    compile_linked_greedy,
    compile_source,
    compile_source_greedy,
    module_attribution,
)
from ..core.cache import CompileCache
from ..core.errors import CompileError
from ..lang.errors import P4AllError
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..pisa.resources import TargetSpec
from .telemetry import TelemetryBus

__all__ = ["ReconfigPlanner", "PlanResult", "PlanError"]

#: what the one retry multiplies the ILP time limit by
BACKOFF = 4.0


class PlanError(CompileError):
    """No layout could be produced at all (infeasible program, or the
    greedy fallback itself failed). The caller must keep the old
    configuration. A :class:`CompileError` so CLI-level handling treats
    it like any other compile failure."""


@dataclass
class PlanResult:
    """Outcome of one planning cycle."""

    compiled: CompiledProgram
    backend: str                  # "ilp" or "greedy"
    fallback: bool                # True when the greedy path was used
    attempts: list[dict] = field(default_factory=list)
    plan_seconds: float = 0.0
    #: Solver/cache observability for this cycle: ``nodes_explored``,
    #: ``incumbent_source``, per-tier cache hit/miss counters, and
    #: whether any compile phase was served from cache.
    solver_stats: dict = field(default_factory=dict)
    #: Per-module stage/memory/ALU/utility attribution (module name →
    #: flat dict), populated when the planned program was linked.
    module_attribution: dict = field(default_factory=dict)

    @property
    def symbol_values(self) -> dict[str, int]:
        return self.compiled.symbol_values


class ReconfigPlanner:
    """Produces a compiled layout for a target, never less than greedy."""

    def __init__(
        self,
        options: CompileOptions | None = None,
        telemetry: TelemetryBus | None = None,
        cache: CompileCache | None = None,
    ):
        self.options = options or CompileOptions()
        # Explicit None-check: an empty TelemetryBus is falsy (len 0).
        self.telemetry = telemetry if telemetry is not None else TelemetryBus()
        #: Shared across every compile this planner issues. Pass
        #: ``CompileCache(max_layouts=0)`` to keep front-end reuse but
        #: force every layout to be re-solved.
        self.cache = cache if cache is not None else CompileCache()

    def _compile(self, source, target, time_limit: float | None,
                 greedy: bool = False) -> CompiledProgram:
        """``source`` is a P4All string or a LinkedProgram; this is the
        only place that cares."""
        options = self.options.replace(time_limit=time_limit,
                                       cache=self.cache)
        if isinstance(source, str):
            compile_ = compile_source_greedy if greedy else compile_source
            return compile_(source, target, options, source_name="runtime")
        compile_ = compile_linked_greedy if greedy else compile_linked
        return compile_(source, target, options)

    def _solver_stats(self, compiled: CompiledProgram) -> dict:
        sol = compiled.solution
        stats = {
            "nodes_explored": sol.nodes_explored,
            "incumbent_source": sol.incumbent_source,
            "frontend_cached": compiled.stats.frontend_cached,
            "bounds_cached": compiled.stats.bounds_cached,
            "layout_cached": compiled.stats.layout_cached,
        }
        stats.update(self.cache.snapshot())
        return stats

    def plan(self, source, target: TargetSpec,
             cause: str = "unspecified") -> PlanResult:
        """Compile ``source`` for ``target``; see the module docstring
        for the retry/fallback policy. ``source`` is a P4All source
        string or a :class:`~repro.link.LinkedProgram` (per-module
        attribution rides along on the result for the latter). Raises
        :class:`PlanError` when even the greedy path cannot produce a
        layout."""
        started = time.perf_counter()
        with trace.span("plan", cause=cause, target=target.name) as span:
            result = self._plan(source, target, cause)
            result.plan_seconds = time.perf_counter() - started
            span.set_attrs(backend=result.backend, fallback=result.fallback,
                           plan_seconds=result.plan_seconds)
        obs_metrics.histogram(
            "p4all_plan_seconds",
            help="Wall time of one planning cycle (compile + fallbacks).",
        ).observe(result.plan_seconds)
        result.solver_stats = self._solver_stats(result.compiled)
        attribution = module_attribution(result.compiled)
        if attribution:
            result.module_attribution = {
                name: a.to_dict() for name, a in attribution.items()
            }
            self.telemetry.emit("module_attribution", cause=cause,
                                modules=result.module_attribution)
        self.cache.emit(self.telemetry, cause=cause)
        return result

    def reweight(self, linked, weights: dict, target: TargetSpec,
                 floors: dict | None = None,
                 cause: str = "reweight") -> tuple:
        """Re-weight one tenant's utility and re-plan.

        Re-links ``linked`` with the new per-module ``weights`` (and
        optional ``floors``) through this planner's shared cache — only
        the objective changes, so every module's frontend artifacts are
        reused and no other tenant's module is re-parsed — then plans
        the relinked program. Returns ``(relinked, PlanResult)``.
        """
        relinked = linked.reweight(weights, floors=floors, cache=self.cache)
        return relinked, self.plan(relinked, target, cause=cause)

    def _plan(self, source, target: TargetSpec, cause: str) -> PlanResult:
        attempts: list[dict] = []
        t0 = 0.0

        def end(backend: str, time_limit: float | None, outcome: str,
                **extra) -> None:
            record = dict(backend=backend, time_limit=time_limit,
                          attempt=len(attempts), outcome=outcome,
                          seconds=time.perf_counter() - t0, **extra)
            attempts.append(record)
            self.telemetry.emit("compile_attempt", cause=cause, **record)

        time_limit = self.options.time_limit
        for _ in range(2):              # the first attempt and one retry
            ilp = ("ilp", time_limit)
            t0 = time.perf_counter()
            try:
                compiled = self._compile(source, target, time_limit)
            except LayoutTimeoutError as exc:
                end(*ilp, "timeout", backend_used=exc.backend)
            except LayoutInfeasibleError as exc:
                # Infeasible is a property of the program+target, not
                # of solver effort: greedy cannot succeed either.
                end(*ilp, "infeasible")
                raise PlanError(
                    f"program does not fit target {target.name!r}: {exc}"
                ) from exc
            except (P4AllError, CompileError) as exc:
                # The compiler rejects the program at this target: no
                # solver effort or first fit changes that.
                end(*ilp, "error", error=str(exc))
                raise PlanError(
                    f"program does not compile for target "
                    f"{target.name!r}: {exc}") from exc
            else:
                if compiled.units:
                    end(*ilp, "ok",
                        status=compiled.solution.status.value,
                        symbols=dict(compiled.symbol_values),
                        nodes_explored=compiled.solution.nodes_explored,
                        incumbent_source=compiled.solution.incumbent_source,
                        layout_cached=compiled.stats.layout_cached)
                    return PlanResult(compiled=compiled, backend="ilp",
                                      fallback=False, attempts=attempts)
                # An incumbent that placed nothing is no better than a
                # timeout.
                end(*ilp, "degenerate-incumbent")
            if time_limit is None:
                break
            time_limit *= BACKOFF
        self.telemetry.emit(
            "ilp_fallback", cause=cause,
            attempts=len(attempts),
            final_time_limit=attempts[-1]["time_limit"],
        )

        t0 = time.perf_counter()
        try:
            compiled = self._compile(source, target, None, greedy=True)
        except (P4AllError, CompileError) as exc:
            end("greedy", None, "error", error=str(exc))
            raise PlanError(f"greedy fallback failed: {exc}") from exc
        end("greedy", None, "ok", status=compiled.solution.status.value,
            symbols=dict(compiled.symbol_values))
        return PlanResult(compiled=compiled, backend="greedy",
                          fallback=True, attempts=attempts)
