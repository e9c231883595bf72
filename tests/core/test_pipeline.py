"""The single compile pipeline, at the seams it merged.

``_compile`` replaced four bodies (source/linked × ILP/greedy) over two
front ends with a cached and an uncached arm each. Whatever the input,
the layout step and the cache state, the artifact must be the same and
the stats must say which tiers answered. The ILP is the only layout a
``CompileOptions`` can ask for; greedy is reached by name
(``compile_*_greedy``) and never touches the layout tier.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.analysis import build_ir, compute_upper_bounds
from repro.apps import (
    conquest_source,
    netcache_linked,
    netcache_source,
    precision_source,
    sketchlearn_source,
)
from repro.core import (
    CompileCache,
    CompileError,
    CompileOptions,
    LayoutBuilder,
    LayoutInfeasibleError,
    LayoutValidationError,
    compile_linked,
    compile_linked_greedy,
    compile_source,
    compile_source_greedy,
    greedy_layout,
    validate_layout,
)
from repro.ilp import solver
from repro.lang import check_program, parse_program
from repro.pisa import small_target, tofino
from repro.runtime import ReconfigPlanner
from repro.structures import CMS_SOURCE

from .test_layout_encoding import t6

INPUTS = {
    "cms": lambda: (compile_source, CMS_SOURCE, small_target(stages=6, memory_kb=32)),
    "netcache": lambda: (compile_source, netcache_source(), t6()),
    "netcache-linked": lambda: (
        compile_linked, netcache_linked(with_routing=False), t6()),
}
GREEDY = {compile_source: compile_source_greedy,
          compile_linked: compile_linked_greedy}


def same_artifact(a, b) -> None:
    assert a.symbol_values == b.symbol_values
    assert a.solution.objective == b.solution.objective
    assert a.p4_source == b.p4_source
    assert [(u.label, u.stage) for u in a.units] \
        == [(u.label, u.stage) for u in b.units]
    assert a.registers == b.registers


@pytest.mark.parametrize("greedy", [False, True], ids=["auto", "greedy"])
@pytest.mark.parametrize("name", INPUTS)
def test_same_artifact_whatever_the_cache_state(name, greedy):
    compile_, program, target = INPUTS[name]()
    if greedy:
        compile_ = GREEDY[compile_]
    linked = name == "netcache-linked"
    plain = compile_(program, target, CompileOptions())
    cache = CompileCache()
    options = CompileOptions(cache=cache)
    cold = compile_(program, target, options)
    warm = compile_(program, target, options)
    for other in (cold, warm):
        same_artifact(plain, other)
        assert (other.verify is not None) == linked
    assert plain.solution.backend == cold.solution.backend
    assert greedy == (plain.solution.backend == "greedy")

    flags = lambda c: (c.stats.frontend_cached, c.stats.bounds_cached,   # noqa: E731
                       c.stats.layout_cached, c.stats.verify_cached)
    assert flags(plain) == flags(cold) == (False, False, False, False)
    if greedy:
        # The first fit shares the front end but never the layout tier.
        assert flags(warm) == (True, True, False, linked)
        assert cache.stats.layout_hits == cache.stats.layout_misses == 0
    else:
        assert flags(warm) == (False, False, True, linked)
        assert warm.units is cold.units             # the artifact is shared
        assert cache.stats.layout_hits == 1 and cache.stats.layout_misses == 1

    # A front-end miss splits its time like an uncached compile does.
    for stats in (plain.stats, cold.stats):
        assert stats.parse_seconds > 0 and stats.ir_seconds > 0
        assert stats.analysis_seconds == stats.ir_seconds + stats.bounds_seconds
        assert stats.total_seconds == pytest.approx(
            stats.parse_seconds + stats.ir_seconds + stats.bounds_seconds
            + stats.ilp_build_seconds + stats.ilp_solve_seconds
            + stats.codegen_seconds + stats.verify_seconds)
    if not greedy:
        assert warm.stats.lookup_seconds > 0 and warm.stats.parse_seconds == 0

    # A new target: front-end hit (the lookup, no IR time), layout miss
    # — whichever layout step runs behind it.
    longer = dataclasses.replace(target, stages=target.stages + 1)
    moved = GREEDY.get(compile_, compile_)(program, longer, options)
    assert flags(moved)[:3] == (True, False, False)
    assert moved.stats.parse_seconds > 0 and moved.stats.ir_seconds == 0


def test_greedy_never_touches_the_layout_tier():
    # The layout tier's key names no solver: a first fit stored there
    # would answer the ILP compile of the same source and target.
    cache = CompileCache()
    target = small_target(stages=6, memory_kb=32)
    options = CompileOptions(cache=cache)
    first = compile_source_greedy(CMS_SOURCE, target, options)
    assert not first.stats.layout_cached and not first.stats.frontend_cached
    optimum = compile_source(CMS_SOURCE, target, options)
    assert optimum.stats.frontend_cached and not optimum.stats.layout_cached
    assert optimum.solution.backend == "scipy-highs"
    again = compile_source_greedy(CMS_SOURCE, target, options)
    assert not again.stats.layout_cached and again.solution.backend == "greedy"
    kept = compile_source(CMS_SOURCE, target, options)
    assert kept.stats.layout_cached and kept.units is optimum.units
    assert cache.snapshot()["layout_entries"] == 1


def test_solver_knobs_are_gone():
    # One solver, HiGHS, behind one seam; greedy is called by name.
    with pytest.raises(TypeError):
        CompileOptions(backend="greedy")
    with pytest.raises(TypeError):
        ReconfigPlanner(max_retries=2)
    assert not hasattr(solver, "available_backends")
    for fn in (solver.solve, LayoutBuilder.solve, LayoutBuilder.search,
               LayoutBuilder.start, LayoutBuilder._start_point,
               LayoutBuilder.resolve_sizes, LayoutBuilder.canonical_placement):
        assert "backend" not in inspect.signature(fn).parameters, fn


# -- greedy and the ILP agree on what a layout is -------------------------------

SIX_APPS = {
    "cms": lambda: CMS_SOURCE,
    "sketchlearn": sketchlearn_source,
    "conquest": conquest_source,
    "precision": precision_source,
    "netcache": netcache_source,
    "netcache-linked": lambda: netcache_linked(with_routing=False).source,
}
#: greedy utilities on ``t6``, unchanged by the ``assume`` handling (no
#: clause binds there)
GREEDY_T6 = {"cms": 2048.0, "sketchlearn": 4608.0, "conquest": 2048.0,
             "precision": 2560.0, "netcache": 1585.6,
             "netcache-linked": 1585.6}


@pytest.mark.parametrize("app", SIX_APPS)
def test_greedy_layout_is_a_feasible_point_of_the_ilp_model(app):
    # Too tight an encoding, or a greedy that overfills, fails here.
    ir = build_ir(check_program(parse_program(SIX_APPS[app]())), "Ingress")
    bounds = compute_upper_bounds(ir, t6())
    builder = LayoutBuilder(ir, bounds, t6())
    builder.build()
    solution = greedy_layout(ir, bounds, t6()).to_solution(ir.info.consts)
    values = builder.encode_assignment(
        solution.symbol_values, solution.instance_stage,
        solution.register_alloc, solution.iteration_active)
    assert values is not None
    assert builder.layout.model.is_feasible(values, tol=1e-6)


def test_greedy_objectives_are_unchanged():
    for app, expected in GREEDY_T6.items():
        greedy = compile_source_greedy(SIX_APPS[app](), t6())
        assert greedy.solution.objective == pytest.approx(expected, rel=1e-12)
    on_tofino = compile_source_greedy(netcache_source(), tofino())
    assert on_tofino.solution.objective == pytest.approx(59441.6, rel=1e-12)


class TestAssumes:
    target = small_target(stages=8, memory_kb=64)

    def test_greedy_fails_where_the_ilp_is_infeasible(self):
        # 2 stateful ALUs a stage: first fit drops the store and used to
        # return kv_rows = 0 against ``assume kv_rows >= 1``.
        with pytest.raises(LayoutInfeasibleError):
            compile_source(netcache_source(), self.target)
        with pytest.raises(CompileError, match="assume kv_rows >= 1"):
            compile_source_greedy(netcache_source(), self.target)

    def test_greedy_respects_an_upper_bound(self):
        capped = CMS_SOURCE.replace("assume cms_cols <= 65536;",
                                    "assume cms_cols <= 512;")
        assert capped != CMS_SOURCE
        optimum = compile_source(capped, self.target)
        greedy = compile_source_greedy(capped, self.target)
        assert optimum.symbol_values["cms_cols"] == 512
        assert greedy.symbol_values["cms_cols"] == 512     # was 1024
        assert all(r.cells == 512 for r in greedy.registers)
        assert greedy.solution.objective <= optimum.solution.objective

    def test_validate_layout_checks_assumes(self):
        compiled = compile_source(CMS_SOURCE, self.target)
        validate_layout(compiled)
        broken = dataclasses.replace(compiled, solution=dataclasses.replace(
            compiled.solution,
            symbol_values=dict(compiled.symbol_values, cms_cols=1 << 17)))
        with pytest.raises(LayoutValidationError,
                           match="assume cms_cols <= 65536"):
            validate_layout(broken)
