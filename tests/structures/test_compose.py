"""Module-composition tests: multiple library modules in one program."""

import pytest

from repro.core import compile_source
from repro.lang import check_program, parse_program
from repro.pisa import Packet, Pipeline, small_target
from repro.structures import (
    bloom_module,
    cms_module,
    compose,
    hashtable_module,
    kv_module,
)

from tests.structures.reference import idtable_module


class TestComposition:
    def test_two_modules_parse_and_check(self):
        source = compose(
            modules=[
                cms_module(prefix="a", key_field="meta.flow_id", seed_offset=0),
                cms_module(prefix="b", key_field="meta.flow_id", seed_offset=50),
            ],
            extra_metadata=["bit<32> flow_id;"],
            utility="a_rows * a_cols + b_rows * b_cols",
        )
        info = check_program(parse_program(source))
        assert {"a_rows", "a_cols", "b_rows", "b_cols"} <= set(info.symbolics)

    def test_utility_weights_render(self):
        cms = cms_module(prefix="cms")
        kv = kv_module(prefix="kv")
        source = compose(
            modules=[cms, kv],
            extra_metadata=["bit<32> flow_id;"],
            utility_weights={"cms": 0.4, "kv": 0.6},
        )
        assert "optimize 0.4 * (cms_rows * cms_cols) + 0.6 * (kv_rows * kv_cols);" \
            in source

    def test_two_sketches_compile_and_run_independently(self):
        source = compose(
            modules=[
                cms_module(prefix="a", max_cols=256, seed_offset=0),
                cms_module(prefix="b", max_cols=256, seed_offset=50),
            ],
            extra_metadata=["bit<32> flow_id;"],
            utility="a_rows * a_cols + b_rows * b_cols",
        )
        compiled = compile_source(source, small_target(stages=8, memory_kb=64))
        assert compiled.symbol_values["a_rows"] >= 1
        assert compiled.symbol_values["b_rows"] >= 1
        pipe = Pipeline(compiled)
        result = pipe.process(Packet(fields={"flow_id": 7}))
        # Both sketches saw the packet once.
        assert result.get("meta.a_min") == 1
        assert result.get("meta.b_min") == 1

    def test_all_library_modules_compose_together(self):
        # One program instantiating five structures at once must still be
        # syntactically/semantically valid (compile would need a big
        # target; parsing and checking suffice here).
        source = compose(
            modules=[
                cms_module(prefix="cms", max_cols=1024),
                bloom_module(prefix="bf", max_bits=1024),
                kv_module(prefix="kv", max_cols=1024),
                hashtable_module(prefix="ht", max_cols=1024),
                idtable_module(prefix="idt", max_size=1024),
            ],
            extra_metadata=["bit<32> flow_id;"],
            utility="cms_rows * cms_cols + kv_rows * kv_cols",
        )
        info = check_program(parse_program(source))
        assert len(info.registers) >= 7

    def test_consts_render_first(self):
        source = compose(
            modules=[cms_module()],
            extra_metadata=["bit<32> flow_id;"],
            consts={"THRESHOLD": 128},
        )
        assert source.splitlines()[0] == "const int THRESHOLD = 128;"
