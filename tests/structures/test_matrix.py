"""Hash-matrix structure tests + simulator cross-validation."""

import numpy as np
import pytest

from repro.core import compile_source
from repro.pisa import Packet, Pipeline, small_target
from repro.structures import MATRIX_SOURCE

from tests.structures.reference import HashMatrix


class TestReference:
    def test_accumulates_in_every_row(self):
        mx = HashMatrix(rows=3, cols=64)
        mx.update(7, amount=10)
        mx.update(7, amount=5)
        assert mx.row_values(7) == [15, 15, 15]

    def test_total_counts_all_traffic(self):
        mx = HashMatrix(rows=2, cols=64)
        for key in (1, 2, 3):
            mx.update(key, amount=2)
        assert mx.total() == 6

    def test_median_estimate_robust_to_one_collision(self):
        mx = HashMatrix(rows=3, cols=4096)
        mx.update(1, amount=100)
        # Even if some other key collided in one row, median of three
        # rows still reports ~100 for key 1.
        mx.update(2, amount=50)
        assert mx.median_estimate(1) in (100, 150)

    def test_wraps_at_width(self):
        mx = HashMatrix(rows=1, cols=4, width=8)
        mx.update(1, amount=200)
        mx.update(1, amount=100)
        assert mx.row_values(1)[0] == (300 % 256)

    def test_clear(self):
        mx = HashMatrix(rows=2, cols=16)
        mx.update(5)
        mx.clear()
        assert mx.total() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            HashMatrix(rows=0, cols=4)


class TestPipelineCrossValidation:
    def test_matrix_matches_reference(self):
        compiled = compile_source(
            MATRIX_SOURCE, small_target(stages=8, memory_kb=64)
        )
        pipe = Pipeline(compiled)
        rows = compiled.symbol_values["mx_rows"]
        cols = compiled.symbol_values["mx_cols"]
        ref = HashMatrix(rows=rows, cols=cols, seed_offset=500)
        rng = np.random.default_rng(61)
        for key in rng.integers(1, 300, size=250):
            size = int(rng.integers(64, 1500))
            pipe.process(Packet(fields={"flow_id": int(key), "pkt_bytes": size}))
            ref.update(int(key), amount=size)
        for row in range(rows):
            assert np.array_equal(
                pipe.register_dump("mx_matrix", row), ref.table[row]
            ), f"row {row} diverged"
