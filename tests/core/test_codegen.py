"""Concrete-P4 code generation tests."""

import pytest

from repro.core import compile_source
from repro.eval.fig11_apps import count_loc
from repro.lang import check_program, parse_program
from repro.pisa.resources import small_target
from repro.structures import CMS_SOURCE


@pytest.fixture(scope="module")
def compiled():
    return compile_source(CMS_SOURCE, small_target(stages=6, memory_kb=32))


class TestGeneratedP4:
    def test_elastic_metadata_flattened(self, compiled):
        rows = compiled.symbol_values["cms_rows"]
        for i in range(rows):
            assert f"bit<32> cms_index_{i};" in compiled.p4_source
        assert f"cms_index_{rows};" not in compiled.p4_source

    def test_registers_concrete_and_annotated(self, compiled):
        cols = compiled.symbol_values["cms_cols"]
        assert f"register<bit<32>>[{cols}] cms_sketch_0;" in compiled.p4_source
        assert "@stage(" in compiled.p4_source

    def test_actions_specialized_per_iteration(self, compiled):
        rows = compiled.symbol_values["cms_rows"]
        for i in range(rows):
            assert f"action cms_incr_{i}()" in compiled.p4_source

    def test_loops_fully_unrolled(self, compiled):
        assert "for (" not in compiled.p4_source
        assert "symbolic int" not in compiled.p4_source

    def test_guards_preserved(self, compiled):
        assert "if (meta.cms_count_0 < meta.cms_min)" in compiled.p4_source

    def test_stage_order_in_apply(self, compiled):
        # Units appear grouped by stage markers in increasing order.
        markers = [
            int(line.split("stage")[1].strip().rstrip("-").strip())
            for line in compiled.p4_source.splitlines()
            if line.strip().startswith("// ---- stage")
        ]
        assert markers == sorted(markers)

    def test_generated_p4_reparses_and_checks(self, compiled):
        program = parse_program(compiled.p4_source, "generated.p4")
        info = check_program(program)
        assert not info.symbolics  # fully concrete
        assert "Ingress" in info.controls

    def test_loc_reduction_vs_source(self, compiled):
        # The elastic source must be shorter than the unrolled output.
        assert count_loc(CMS_SOURCE) < count_loc(compiled.p4_source)


class TestTablePassthrough:
    def test_tables_render(self):
        from repro.pisa.resources import tofino

        from ..pisa.test_vector_wide import compiled_app

        compiled = compiled_app("netcache", tofino())
        assert "table route {" in compiled.p4_source
        assert "meta.dst : exact;" in compiled.p4_source
        assert "route.apply();" in compiled.p4_source
        # Generated NetCache re-parses too.
        check_program(parse_program(compiled.p4_source, "netcache.p4"))
