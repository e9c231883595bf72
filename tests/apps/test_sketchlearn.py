"""SketchLearn application tests."""

import numpy as np
import pytest

from repro.apps import sketchlearn_source
from repro.lang import check_program, parse_program

from tests.apps.reference import SketchLearnApp, extract_large_flows
from tests.structures.reference import HierarchicalSketch


class TestSource:
    def test_parses_and_checks(self):
        info = check_program(parse_program(sketchlearn_source()))
        assert "sl_cols" in info.symbolics
        assert "sl_lvl" in info.registers


class TestExtraction:
    def test_dominant_flow_extracted_with_count(self):
        sketch = HierarchicalSketch(key_bits=8, cols=2048)
        heavy, light_universe = 0b10110101, 200
        rng = np.random.default_rng(51)
        for _ in range(500):
            sketch.update(heavy)
        for key in rng.integers(1, light_universe, size=500):
            sketch.update(int(key))
        found = extract_large_flows(sketch, [heavy], theta=0.05)
        assert heavy in found
        assert found[heavy] >= 500

    def test_small_flows_not_extracted(self):
        sketch = HierarchicalSketch(key_bits=8, cols=2048)
        rng = np.random.default_rng(52)
        for key in rng.integers(1, 250, size=2000):
            sketch.update(int(key))
        # No flow holds >= 20% of traffic.
        found = extract_large_flows(sketch, list(range(1, 250)), theta=0.2)
        assert found == {}

    def test_empty_sketch(self):
        sketch = HierarchicalSketch(key_bits=4, cols=64)
        assert extract_large_flows(sketch, [1, 2, 3]) == {}


class TestCompiledApp:
    @pytest.fixture(scope="class")
    def app(self, mini_tofino):
        return SketchLearnApp(mini_tofino)

    def test_columns_stretched(self, app):
        assert app.cols >= 128

    def test_pipeline_extraction_end_to_end(self, app):
        heavy = 0b1100_1010
        rng = np.random.default_rng(53)
        trace = [heavy] * 400 + [int(k) for k in rng.integers(1, 200, size=400)]
        rng.shuffle(trace := np.array(trace))
        app.run_trace(trace)
        found = app.extract([heavy], theta=0.1)
        assert heavy in found

    def test_reference_view_matches_registers(self, app):
        ref = app.as_reference()
        assert ref.packets == app.packets
        assert np.array_equal(ref.levels[0], app.level_counts(0))
