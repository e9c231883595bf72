"""ID-indexed table: reference semantics + simulator cross-validation."""

import numpy as np
import pytest

from repro.core import compile_source
from repro.pisa import Packet, Pipeline, small_target
from repro.structures import IDTABLE_SOURCE

from tests.structures.reference import IdIndexedTable


class TestReference:
    def test_get_set_add(self):
        t = IdIndexedTable(size=16)
        t.set(3, 100)
        assert t.get(3) == 100
        assert t.add(3, 5) == 105

    def test_width_masking(self):
        t = IdIndexedTable(size=4, width=8)
        t.set(0, 0x1FF)
        assert t.get(0) == 0xFF

    def test_modular_indexing(self):
        t = IdIndexedTable(size=4)
        t.set(6, 9)
        assert t.get(2) == 9

    def test_in_range(self):
        t = IdIndexedTable(size=10)
        assert t.in_range(9) and not t.in_range(10)

    def test_memory_bits(self):
        assert IdIndexedTable(size=100, width=64).memory_bits == 6400

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            IdIndexedTable(size=0)


class TestPipelineCrossValidation:
    def test_per_id_counters_match(self):
        compiled = compile_source(
            IDTABLE_SOURCE, small_target(stages=4, memory_kb=64)
        )
        pipe = Pipeline(compiled)
        size = compiled.symbol_values["idt_size"]
        ref = IdIndexedTable(size=size)
        rng = np.random.default_rng(29)
        for flow in rng.integers(0, size, size=300):
            result = pipe.process(Packet(fields={"flow_id": int(flow)}))
            expected = ref.add(int(flow), 1)
            assert result.get("meta.idt_state") == expected
        assert np.array_equal(pipe.register_dump("idt_table"), ref.cells)
