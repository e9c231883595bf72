"""End-to-end compiler-driver tests."""

import pytest

from repro.core import (
    CompileOptions,
    compile_file,
    compile_source,
    layout_report,
    summary_line,
)
from repro.core.errors import CompileError
from repro.pisa.resources import small_target
from repro.structures import CMS_SOURCE

from ..conftest import bb_solves


class TestDriver:
    def test_stats_populated(self, compiled_cms):
        stats = compiled_cms.stats
        assert stats.ilp_variables > 0
        assert stats.ilp_constraints > 0
        assert stats.total_seconds > 0
        assert stats.ilp_solve_seconds <= stats.total_seconds

    def test_units_sorted_by_stage(self, compiled_cms):
        stages = [u.stage for u in compiled_cms.units]
        assert stages == sorted(stages)

    def test_registers_have_widths(self, compiled_cms):
        for reg in compiled_cms.registers:
            assert reg.width == 32
            assert reg.cells > 0

    def test_compile_file(self, tmp_path, small8):
        path = tmp_path / "cms.p4all"
        path.write_text(CMS_SOURCE)
        compiled = compile_file(path, small8)
        assert compiled.source_name.endswith("cms.p4all")

    def test_custom_entry_control(self, small8):
        source = """
        struct metadata { bit<32> x; }
        control MyPipe(inout metadata meta) {
            apply { meta.x = 1; }
        }
        """
        compiled = compile_source(
            source, small8, options=CompileOptions(entry="MyPipe")
        )
        assert len(compiled.units) == 1

    def test_bb_backend_agrees_with_scipy(self):
        target = small_target(stages=4, memory_kb=4)
        a = compile_source(CMS_SOURCE, target)
        with bb_solves():
            b = compile_source(CMS_SOURCE, target)
        assert (a.solution.backend, b.solution.backend) == ("scipy-highs", "bb")
        assert a.solution.objective == pytest.approx(
            b.solution.objective, rel=1e-4
        )

    def test_program_without_optimize_still_compiles(self, small8):
        source = CMS_SOURCE.replace("optimize cms_rows * cms_cols;", "")
        compiled = compile_source(source, small8)
        # Without a utility, any feasible placement is acceptable; the
        # inelastic parts must still be placed.
        assert any(u.instance.name == "op1" for u in compiled.units)


class TestReports:
    def test_summary_line_contents(self, compiled_cms):
        line = summary_line(compiled_cms)
        assert "cms_rows=" in line and "ILP" in line

    def test_layout_report_contents(self, compiled_cms):
        report = layout_report(compiled_cms)
        assert "stage 0" in report
        assert "register cms_sketch[0]" in report
        assert "%" in report
