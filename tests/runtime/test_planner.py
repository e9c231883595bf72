"""Reconfiguration planner: retry, backoff, fallback, telemetry.

The planner retries a timed-out ILP once, at ``BACKOFF``× the limit,
then falls back to ``compile_*_greedy``; there is no retry count or
solver to configure."""

import pytest

from repro.core import CompileOptions
from repro.pisa.resources import small_target
from repro.runtime import PlanError, ReconfigPlanner, TelemetryBus

from ..core.test_layout_encoding import ZERO_ITERATIONS
from .conftest import RUNTIME_SOURCE


class TestIlpPath:
    def test_plan_solves_with_ilp(self, mini64):
        bus = TelemetryBus()
        planner = ReconfigPlanner(telemetry=bus)
        result = planner.plan(RUNTIME_SOURCE, mini64, cause="initial")
        assert result.backend == "ilp"
        assert not result.fallback
        assert result.symbol_values["kv_cols"] > 0
        assert result.attempts[-1]["outcome"] == "ok"
        assert bus.events_of("compile_attempt")
        assert not bus.events_of("ilp_fallback")


class TestTimeoutFallback:
    def test_forced_timeout_degrades_to_greedy(self, mini64):
        """The acceptance scenario: an impossibly small ILP time limit
        must degrade to the greedy layout with no unhandled exception,
        and the telemetry must record the fallback."""
        bus = TelemetryBus()
        planner = ReconfigPlanner(
            options=CompileOptions(time_limit=1e-4),
            telemetry=bus,
        )
        result = planner.plan(RUNTIME_SOURCE, mini64, cause="target-change")
        assert result.backend == "greedy"
        assert result.fallback
        assert result.compiled.units          # a real, populated layout
        assert result.symbol_values["kv_cols"] >= 1

        # Two ILP attempts (initial + one retry with backoff), then greedy.
        timeouts = [a for a in result.attempts
                    if a["outcome"].startswith("timeout")
                    or a["outcome"] == "degenerate-incumbent"]
        assert len(timeouts) == 2
        assert result.attempts[-1]["backend"] == "greedy"
        assert result.attempts[-1]["outcome"] == "ok"

        fallbacks = bus.events_of("ilp_fallback")
        assert len(fallbacks) == 1
        assert fallbacks[0].data["attempts"] == 2

    def test_backoff_scales_time_limit(self, mini64):
        # Timeout without an incumbent: one retry at 4x, then fall back.
        bus = TelemetryBus()
        planner = ReconfigPlanner(
            options=CompileOptions(time_limit=1e-4),
            telemetry=bus,
        )
        result = planner.plan(RUNTIME_SOURCE, mini64)
        ilp_attempts = [a for a in result.attempts if a["backend"] != "greedy"]
        assert {a["backend"] for a in ilp_attempts} == {"ilp"}
        limits = [a["time_limit"] for a in ilp_attempts]
        assert limits == [pytest.approx(1e-4), pytest.approx(4e-4)]
        assert result.fallback and result.backend == "greedy"
        # The last limit an attempt ran with, not one step past it.
        fallback = bus.last_of("ilp_fallback")
        assert fallback.data["final_time_limit"] == pytest.approx(4e-4)

    def test_fallback_is_not_served_as_a_cached_ilp_plan(self, mini64):
        # The layout tier's key names no solver, so the greedy fallback
        # stays out of it: a re-plan of the same source, target and
        # limit runs the ILP again instead of taking the first fit as
        # an "ok" ILP layout.
        planner = ReconfigPlanner(options=CompileOptions(time_limit=1e-4))
        first = planner.plan(RUNTIME_SOURCE, mini64)
        again = planner.plan(RUNTIME_SOURCE, mini64)
        for result in (first, again):
            assert result.backend == "greedy" and result.fallback
            assert [a["outcome"] for a in result.attempts] == [
                "timeout", "timeout", "ok"]
        assert not again.compiled.stats.layout_cached
        assert again.compiled.stats.frontend_cached
        assert planner.cache.stats.layout_hits == 0
        assert planner.cache.snapshot()["layout_entries"] == 0

    def test_unusable_incumbent_without_a_limit_is_not_retried(self):
        # The optimum of ``optimize 0 - n`` places nothing. With no time
        # limit there is nothing to scale, and the same compile again
        # gives the same answer: one ILP attempt, then greedy.
        bus = TelemetryBus()
        planner = ReconfigPlanner(telemetry=bus)
        result = planner.plan(ZERO_ITERATIONS, small_target(stages=4))
        assert [(a["backend"], a["outcome"]) for a in result.attempts] == [
            ("ilp", "degenerate-incumbent"), ("greedy", "ok")]
        assert result.fallback and result.compiled.units
        assert bus.last_of("ilp_fallback").data["attempts"] == 1
        assert planner.cache.stats.layout_hits == 0


class TestInfeasible:
    def test_infeasible_target_raises_plan_error(self):
        # small_target has 2 stateful ALUs/stage — NetCache genuinely
        # does not fit, so even greedy cannot help.
        bus = TelemetryBus()
        planner = ReconfigPlanner(telemetry=bus)
        with pytest.raises(PlanError):
            planner.plan(RUNTIME_SOURCE, small_target(stages=6, memory_kb=64))
        attempts = bus.events_of("compile_attempt")
        assert [a.data["outcome"] for a in attempts] == ["infeasible"]
        assert attempts[0].data["backend"] != "greedy"   # greedy not tried
        assert not bus.events_of("ilp_fallback")

    def test_assume_the_greedy_layout_breaks_is_a_plan_error(self):
        # 2 stateful ALUs a stage: first fit drops the key-value store,
        # against ``assume kv_rows >= 1``. What used to be installed as
        # a cache-less "fallback" is now a failed plan. The first fit is
        # reached the way the runtime reaches it, through forced timeouts.
        bus = TelemetryBus()
        planner = ReconfigPlanner(
            options=CompileOptions(time_limit=1e-4), telemetry=bus)
        with pytest.raises(PlanError, match="assume kv_rows >= 1"):
            planner.plan(RUNTIME_SOURCE, small_target(stages=8, memory_kb=64))
        assert bus.last_of("compile_attempt").data["outcome"] == "error"
        assert len(bus.events_of("ilp_fallback")) == 1


#: safe at 64 Kb a stage, where both loops run four times; at 32 Kb the
#: best layout has ``a_rows`` 2, and ``b_mark[2]`` reads ``a_cnt[2]``
INDEX_UNSAFE_AT_32KB = """
symbolic int a_rows;
symbolic int b_rows;
assume a_rows >= 1 && a_rows <= 4;
assume b_rows >= 1 && b_rows <= 4;
struct metadata {
    bit<32> flow;
    bit<32>[a_rows] a_cnt;
    bit<32>[b_rows] b_cnt;
}
register<bit<32>>[1024][a_rows] a_reg;
register<bit<32>>[1024][b_rows] b_reg;
action a_mark()[int i] {
    a_reg[i].add_read(meta.a_cnt[i], meta.flow, 1);
}
action b_mark()[int i] {
    b_reg[i].add_read(meta.b_cnt[i], meta.a_cnt[i], 1);
}
control Ingress(inout metadata meta) {
    apply {
        for (i < a_rows) { a_mark()[i]; }
        for (i < b_rows) { b_mark()[i]; }
    }
}
optimize a_rows + 2 * b_rows;
"""


class TestCompileErrors:
    def test_a_rejected_compile_is_a_plan_error(self, mini64, mini32):
        # The compile's own index check rejects the 32 Kb layout with an
        # IndexBoundsError, a SemanticError: the planner's contract turns
        # it into a PlanError, and the first fit is not tried.
        from repro.analysis.bounds_check import IndexBoundsError

        bus = TelemetryBus()
        planner = ReconfigPlanner(telemetry=bus)
        assert planner.plan(INDEX_UNSAFE_AT_32KB, mini64).symbol_values == {
            "a_rows": 4, "b_rows": 4}
        with pytest.raises(PlanError, match="out of bounds") as exc:
            planner.plan(INDEX_UNSAFE_AT_32KB, mini32)
        assert isinstance(exc.value.__cause__, IndexBoundsError)
        last = bus.last_of("compile_attempt").data
        assert (last["backend"], last["outcome"]) == ("ilp", "error")
        assert not bus.events_of("ilp_fallback")


class TestCacheAndWarmStart:
    """The planner's shared cache (the class name predates the removal
    of the cross-target warm start)."""

    def test_second_plan_reuses_frontend(self, mini64, mini32):
        """The memory-cut recompile skips parse/IR via the planner's
        shared cache; its solver stats record the reuse."""
        planner = ReconfigPlanner()
        planner.plan(RUNTIME_SOURCE, mini64, cause="initial")
        result = planner.plan(RUNTIME_SOURCE, mini32, cause="target-change")
        assert result.compiled.stats.frontend_cached
        assert not result.compiled.stats.layout_cached  # new target
        assert result.solver_stats["frontend_hits"] >= 1

    def test_identical_replan_hits_layout_cache(self, mini64):
        planner = ReconfigPlanner()
        first = planner.plan(RUNTIME_SOURCE, mini64)
        again = planner.plan(RUNTIME_SOURCE, mini64)
        assert again.compiled.stats.layout_cached
        assert again.symbol_values == first.symbol_values
        assert again.solver_stats["layout_hits"] >= 1

    def test_cache_telemetry_emitted_per_cycle(self, mini64):
        bus = TelemetryBus()
        planner = ReconfigPlanner(telemetry=bus)
        planner.plan(RUNTIME_SOURCE, mini64, cause="initial")
        events = bus.events_of("compile_cache")
        assert len(events) == 1
        assert events[0].data["cause"] == "initial"
