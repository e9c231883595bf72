"""Layout-ILP correctness: every Figure-10 constraint family, checked on
real compiled artifacts rather than on the ILP matrices."""

import dataclasses

import pytest

from repro.core import (
    CompileOptions,
    LayoutOptions,
    compile_source,
    LayoutInfeasibleError,
)
from repro.pisa.resources import small_target, toy_three_stage, tofino
from repro.structures import CMS_SOURCE, KV_SOURCE


def verify_resource_model(compiled) -> None:
    """Independent re-check of per-stage budgets on a compiled artifact."""
    from repro.core.tablemem import table_memory_bits

    target = compiled.target
    for stage in range(target.stages):
        units = compiled.units_in_stage(stage)
        regs = compiled.registers_in_stage(stage)
        mem = sum(r.size_bits for r in regs)
        mem += sum(
            table_memory_bits(compiled.info.tables[u.instance.table], compiled.info)
            for u in units
            if u.instance.table is not None
        )
        assert mem <= target.memory_bits_per_stage, f"stage {stage} memory"
        stateful = sum(target.hf(u.instance.cost) for u in units)
        stateless = sum(target.hl(u.instance.cost) for u in units)
        hashes = sum(u.instance.cost.hash_ops for u in units)
        assert stateful <= target.stateful_alus_per_stage, f"stage {stage} F"
        assert stateless <= target.stateless_alus_per_stage, f"stage {stage} L"
        assert hashes <= target.hash_units_per_stage, f"stage {stage} hash"


@pytest.fixture(scope="module")
def cms_small():
    return compile_source(CMS_SOURCE, small_target(stages=6, memory_kb=32))


class TestResourceConstraints:
    def test_budgets_respected(self, cms_small):
        verify_resource_model(cms_small)

    def test_register_colocated_with_action(self, cms_small):
        # #9: every register instance lives where its accessor is placed.
        reg_stage = {(r.family, r.index): r.stage for r in cms_small.registers}
        for unit in cms_small.units:
            for fam, idx in unit.instance.registers:
                assert reg_stage[(fam, idx)] == unit.stage

    def test_equal_register_sizes(self, cms_small):
        # #10: all placed instances of one family have the same size.
        sizes = {}
        for reg in cms_small.registers:
            sizes.setdefault(reg.family, set()).add(reg.cells)
        for family, cells in sizes.items():
            assert len(cells) == 1, f"{family} sizes differ: {cells}"

    def test_phv_budget_respected(self, cms_small):
        info = cms_small.info
        used = info.metadata_fixed_bits()
        rows = cms_small.symbol_values["cms_rows"]
        for fd in info.metadata.values():
            if fd.is_elastic:
                used += fd.width * rows
        assert used <= cms_small.target.phv_bits


class TestDependencyConstraints:
    def test_precedence_in_stage_numbers(self, cms_small):
        # incr[i] strictly before take_min[i].
        stages = {u.label: u.stage for u in cms_small.units}
        rows = cms_small.symbol_values["cms_rows"]
        for i in range(rows):
            assert stages[f"cms_incr[{i}]"] < stages[f"cms_take_min[{i}]"]

    def test_exclusion_in_distinct_stages(self, cms_small):
        stages = {u.label: u.stage for u in cms_small.units}
        rows = cms_small.symbol_values["cms_rows"]
        mins = [stages[f"cms_take_min[{i}]"] for i in range(rows)]
        assert len(set(mins)) == rows, "take_min instances must not share stages"

    def test_iterations_form_a_prefix(self, cms_small):
        # #16: active iterations are 0..rows-1 with no gaps.
        rows = cms_small.symbol_values["cms_rows"]
        active = {
            i for (sym, i), on in cms_small.solution.iteration_active.items()
            if sym == "cms_rows" and on
        }
        assert active == set(range(rows))

    def test_paired_loops_keep_same_count(self, cms_small):
        # #7: hash_inc and find_min loops share 'cms_rows': equal numbers
        # of incr and take_min units are placed.
        incr = sum(1 for u in cms_small.units if u.instance.name == "cms_incr")
        take = sum(1 for u in cms_small.units if u.instance.name == "cms_take_min")
        assert incr == take == cms_small.symbol_values["cms_rows"]


class TestAssumes:
    def test_assume_bounds_respected(self, cms_small):
        syms = cms_small.symbol_values
        assert 1 <= syms["cms_rows"] <= 4
        assert syms["cms_cols"] <= 65536

    def test_memory_floor_assume(self):
        # Figure-13 style product assume forces a minimum total size.
        floor_bits = 6 * 32 * 1024  # 6 KV-rows worth at 32 b/key... (toy)
        source = KV_SOURCE.replace(
            "assume kv_rows >= 1;",
            f"assume kv_rows >= 1;\nassume kv_rows * kv_cols * 96 >= {floor_bits};",
        )
        compiled = compile_source(source, small_target(stages=8, memory_kb=64))
        total_bits = sum(
            96 * 0 + r.size_bits for r in compiled.registers
        )
        assert total_bits >= floor_bits

    def test_contradictory_assume_is_infeasible(self):
        source = CMS_SOURCE.replace(
            "assume cms_rows >= 1 && cms_rows <= 4;",
            "assume cms_rows >= 3 && cms_rows <= 4;",
        )
        # On the 3-stage toy target at most 2 rows fit -> infeasible.
        with pytest.raises(Exception) as excinfo:
            compile_source(source, toy_three_stage())
        from repro.lang.errors import SemanticError

        assert isinstance(
            excinfo.value, (LayoutInfeasibleError, SemanticError)
        )


class TestOptimality:
    def test_cms_maximizes_total_cells(self):
        # 6 stages x 32 kb: with rows<=4 and the min-chain, the optimum
        # fills whole stages; total cells must equal rows * cols.
        target = small_target(stages=6, memory_kb=32)
        compiled = compile_source(CMS_SOURCE, target)
        syms = compiled.symbol_values
        total = compiled.family_total_cells("cms_sketch")
        assert total == syms["cms_rows"] * syms["cms_cols"]

    def test_bigger_target_never_decreases_objective(self):
        small = compile_source(CMS_SOURCE, small_target(stages=4, memory_kb=16))
        large = compile_source(CMS_SOURCE, small_target(stages=6, memory_kb=64))
        assert large.solution.objective >= small.solution.objective

    def test_symmetry_breaking_preserves_objective(self):
        target = small_target(stages=5, memory_kb=32)
        on = compile_source(CMS_SOURCE, target)
        off = compile_source(
            CMS_SOURCE,
            target,
            options=CompileOptions(layout=LayoutOptions(symmetry_breaking=False)),
        )
        assert on.solution.objective == pytest.approx(
            off.solution.objective, rel=1e-4
        )


class TestApplicationLayouts:
    def test_netcache_layout_resources(self):
        from ..pisa.test_vector_wide import compiled_app

        compiled = compiled_app("netcache", tofino())
        verify_resource_model(compiled)

    def test_precision_layout_resources(self):
        from repro.apps import precision_source

        compiled = compile_source(precision_source(), tofino())
        verify_resource_model(compiled)
