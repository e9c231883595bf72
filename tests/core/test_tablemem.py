"""Table-memory accounting tests (§4.4 extension)."""

import dataclasses

import pytest

from repro.core import compile_source
from repro.core.tablemem import table_memory_bits
from repro.lang import check_program, parse_program
from repro.pisa.resources import small_target

SOURCE = """
struct metadata {
    bit<32> dst;
    bit<16> vlan;
    bit<9> egress;
}
action set_port(bit<9> port) {
    meta.egress = port;
}
table route {
    key = {
        meta.dst : exact;
        meta.vlan : ternary;
    }
    actions = { set_port; NoAction; }
    size = 256;
    default_action = NoAction;
}
control Ingress(inout metadata meta) {
    apply { route.apply(); }
}
"""


class TestTableMemoryBits:
    def test_width_computation(self):
        info = check_program(parse_program(SOURCE))
        bits = table_memory_bits(info.tables["route"], info)
        # 256 entries x (32 exact + 2*16 ternary + 32 overhead).
        assert bits == 256 * (32 + 32 + 32)

    def test_default_size_used_when_missing(self):
        source = SOURCE.replace("    size = 256;\n", "")
        info = check_program(parse_program(source))
        bits = table_memory_bits(info.tables["route"], info)
        assert bits == 1024 * 96


class TestLayoutIntegration:
    def test_table_memory_counted_against_stage(self):
        # A stage holds 16 kb; the table needs 24 kb -> infeasible.
        from repro.core import LayoutInfeasibleError

        target = small_target(stages=1, memory_kb=16)
        with pytest.raises(LayoutInfeasibleError):
            compile_source(SOURCE, target)

    def test_table_and_registers_share_stage_budget(self):
        source = SOURCE.replace(
            "control Ingress(inout metadata meta) {\n    apply { route.apply(); }\n}",
            """
symbolic int n;
register<bit<32>>[n] counter;
action count() {
    counter.add(meta.dst, 1);
}
control Ingress(inout metadata meta) {
    apply {
        route.apply();
        count();
    }
}

optimize n;
""",
        )
        target = small_target(stages=1, memory_kb=32)  # 32768 bits
        compiled = compile_source(source, target)
        cells = compiled.symbol_values["n"]
        # The table takes 256*96 = 24576 bits, leaving 8192 for counters.
        assert cells == (32 * 1024 - 24576) // 32
