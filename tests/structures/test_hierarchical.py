"""Hierarchical sketch: reference semantics + simulator cross-validation."""

import numpy as np
import pytest

from repro.core import compile_source
from repro.pisa import Packet, Pipeline, small_target
from repro.structures import SKETCHLEARN_SOURCE

from tests.structures.reference import HierarchicalSketch


class TestReference:
    def test_level0_counts_everything(self):
        sketch = HierarchicalSketch(key_bits=4, cols=64)
        for key in (1, 2, 3, 1):
            sketch.update(key)
        assert sketch.packets == 4
        assert int(sketch.levels[0].sum()) == 4

    def test_bit_levels_count_set_bits(self):
        sketch = HierarchicalSketch(key_bits=4, cols=1024)
        sketch.update(0b1010)
        assert int(sketch.levels[1].sum()) == 0  # bit 0 clear
        assert int(sketch.levels[2].sum()) == 1  # bit 1 set
        assert int(sketch.levels[3].sum()) == 0
        assert int(sketch.levels[4].sum()) == 1  # bit 3 set

    def test_bit_ratio_for_dominant_flow(self):
        sketch = HierarchicalSketch(key_bits=4, cols=4096)
        for _ in range(100):
            sketch.update(0b0110)
        assert sketch.bit_ratio(0b0110, 1) == pytest.approx(1.0)
        assert sketch.bit_ratio(0b0110, 0) == pytest.approx(0.0)

    def test_infer_key_bits_recovers_identifier(self):
        sketch = HierarchicalSketch(key_bits=6, cols=4096)
        key = 0b101101
        for _ in range(200):
            sketch.update(key)
        bits = sketch.infer_key_bits(key)
        assert bits == [(key >> i) & 1 for i in range(6)]

    def test_ambiguous_bits_reported_none(self):
        sketch = HierarchicalSketch(key_bits=1, cols=1)
        # Two flows with opposite bit 0 share the single slot 50/50.
        for _ in range(50):
            sketch.update(0b0)
            sketch.update(0b1)
        assert sketch.infer_key_bits(0b1) == [None]


class TestPipelineCrossValidation:
    def test_levels_match_reference(self):
        compiled = compile_source(
            SKETCHLEARN_SOURCE, small_target(stages=6, memory_kb=64)
        )
        pipe = Pipeline(compiled)
        cols = compiled.symbol_values["sl_cols"]
        ref = HierarchicalSketch(key_bits=8, cols=cols, seed_offset=300)
        rng = np.random.default_rng(23)
        for key in rng.integers(1, 256, size=400):
            pipe.process(Packet(fields={"flow_id": int(key)}))
            ref.update(int(key))
        for level in range(9):
            assert np.array_equal(
                pipe.register_dump("sl_lvl", level), ref.levels[level]
            ), f"level {level} diverged"
