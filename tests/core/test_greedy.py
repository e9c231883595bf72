"""Greedy first-fit baseline tests."""

import pytest

from repro.analysis import build_ir, compute_upper_bounds
from repro.core import compile_source, greedy_layout
from repro.lang import check_program, parse_program
from repro.lang.symbols import eval_static
from repro.pisa.resources import small_target
from repro.structures import CMS_SOURCE

from .test_layout_encoding import t6


def greedy_for(source: str, target):
    info = check_program(parse_program(source))
    ir = build_ir(info, "Ingress")
    bounds = compute_upper_bounds(ir, target)
    return info, greedy_layout(ir, bounds, target)


class TestGreedyFeasibility:
    def test_stage_assignments_within_range(self):
        target = small_target(stages=6, memory_kb=32)
        _, result = greedy_for(CMS_SOURCE, target)
        for stage in result.instance_stage.values():
            assert stage is None or 0 <= stage < target.stages

    def test_memory_within_budget(self):
        target = small_target(stages=6, memory_kb=32)
        info, result = greedy_for(CMS_SOURCE, target)
        per_stage: dict[int, int] = {}
        for (fam, _idx), (stage, cells) in result.register_alloc.items():
            bits = cells * info.registers[fam].cell_bits
            per_stage[stage] = per_stage.get(stage, 0) + bits
        for stage, bits in per_stage.items():
            assert bits <= target.memory_bits_per_stage

    def test_symbol_values_consistent(self):
        target = small_target(stages=6, memory_kb=32)
        _, result = greedy_for(CMS_SOURCE, target)
        rows = result.symbol_values["cms_rows"]
        placed_regs = len(result.register_alloc)
        assert placed_regs == rows

    def test_utility_evaluation(self):
        target = small_target(stages=6, memory_kb=32)
        info, result = greedy_for(CMS_SOURCE, target)
        opt = info.program.optimize()
        value = result.utility_value(opt.utility, info.consts)
        assert value > 0


class TestGreedyVsIlp:
    def test_ilp_at_least_as_good(self):
        target = small_target(stages=6, memory_kb=32)
        info, greedy = greedy_for(CMS_SOURCE, target)
        compiled = compile_source(CMS_SOURCE, target)
        opt = info.program.optimize().utility
        env_ilp = dict(info.consts)
        env_ilp.update(compiled.symbol_values)
        ilp_value = eval_static(opt, env_ilp)
        greedy_value = greedy.utility_value(opt, info.consts)
        assert ilp_value >= greedy_value

    def test_netcache_gap(self):
        # Greedy allocates the KV store (first in program order) whole
        # stages before it ever considers the sketch; the ILP balances.
        from repro.apps import netcache_source
        from repro.pisa.resources import tofino

        from ..pisa.test_vector_wide import compiled_app

        source = netcache_source()
        target = tofino()
        info, greedy = greedy_for(source, target)
        compiled = compiled_app("netcache", target)
        opt = info.program.optimize().utility
        env = dict(info.consts)
        env.update(compiled.symbol_values)
        assert eval_static(opt, env) >= greedy.utility_value(opt, info.consts)


class TestGreedyNetCache:
    """Greedy is the runtime's timeout fallback: on the targets the
    runtime walks it must hand back a layout ``validate_layout``
    accepts, never better than the ILP's."""

    def test_table_sram_counts_against_the_stage(self):
        # The 65 536-bit route table fills a t6 stage: first-fit used to
        # put it beside kv_probe[0]/cms_incr[0], leaving the registers a
        # zero budget that a clamp papered over (stage 0: 65 728 bits).
        from repro.apps import netcache_source
        from repro.core import compile_source_greedy
        from repro.core.validate import validate_layout

        source = netcache_source()
        greedy = compile_source_greedy(source, t6(64))
        validate_layout(greedy)
        route_stage = next(u.stage for u in greedy.units
                           if u.instance.table == "route")
        assert not greedy.registers_in_stage(route_stage)
        assert all(r.cells >= 1 for r in greedy.registers)
        assert greedy.symbol_values["kv_cols"] >= 1
        ilp = compile_source(source, t6(64))
        assert greedy.solution.objective <= ilp.solution.objective

    @pytest.mark.parametrize("memory_kb", range(60, 28, -4))
    def test_valid_and_no_better_down_the_memory_ladder(self, memory_kb):
        from repro.apps import netcache_linked
        from repro.core import compile_linked, compile_linked_greedy
        from repro.core.validate import validate_layout

        target = t6(memory_kb)
        linked = netcache_linked(with_routing=False)
        greedy = compile_linked_greedy(linked, target)
        validate_layout(greedy)
        for reg in greedy.registers:
            if reg.family.endswith(("kv_keys", "kv_val0", "kv_val1")):
                assert reg.cells == greedy.symbol_values[
                    next(s for s in greedy.symbol_values if s.endswith("kv_cols"))]
        ilp = compile_linked(linked, target)
        assert greedy.solution.objective <= ilp.solution.objective
