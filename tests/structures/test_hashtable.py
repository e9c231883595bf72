"""Counting hash table: reference semantics + simulator cross-validation."""

import numpy as np
import pytest

from repro.core import compile_source
from repro.pisa import Packet, Pipeline, small_target
from repro.structures import HASHTABLE_SOURCE

from tests.structures.reference import CountingHashTable


class TestReference:
    def test_untracked_key_not_counted(self):
        ht = CountingHashTable(rows=2, cols=64)
        assert not ht.increment(5)
        assert ht.count(5) == 0

    def test_tracked_key_counts(self):
        ht = CountingHashTable(rows=2, cols=64)
        assert ht.install(5)
        assert ht.increment(5)
        assert ht.increment(5)
        assert ht.count(5) == 2

    def test_install_prefers_empty_slot(self):
        ht = CountingHashTable(rows=2, cols=1)
        assert ht.install(1)
        assert ht.install(2)
        assert not ht.install(3)  # full

    def test_replace_min_evicts_smallest(self):
        ht = CountingHashTable(rows=2, cols=1)
        ht.install(1, count=10)
        ht.install(2, count=3)
        evicted = ht.replace_min(9, count=1)
        assert evicted == 3
        assert ht.count(9) == 1
        assert ht.count(1) == 10

    def test_min_candidate_count(self):
        ht = CountingHashTable(rows=2, cols=1)
        ht.install(1, count=10)
        ht.install(2, count=3)
        assert ht.min_candidate_count(99) == 3

    def test_heavy_keys(self):
        ht = CountingHashTable(rows=2, cols=64)
        ht.install(5, count=100)
        ht.install(6, count=1)
        assert ht.heavy_keys(50) == {5}


class TestPipelineCrossValidation:
    @pytest.fixture(scope="class")
    def setup(self):
        compiled = compile_source(
            HASHTABLE_SOURCE, small_target(stages=8, memory_kb=64)
        )
        pipe = Pipeline(compiled)
        rows = compiled.symbol_values["ht_rows"]
        cols = compiled.symbol_values["ht_cols"]
        ref = CountingHashTable(rows=rows, cols=cols, seed_offset=200)
        return pipe, ref

    def install_both(self, pipe, ref, key):
        assert ref.install(key)
        for row in range(ref.rows):
            idx = ref.slot_of(row, key)
            stored = int(pipe.registers.get(f"ht_keys[{row}]").read(idx))
            if stored in (0, key):
                pipe.registers.get(f"ht_keys[{row}]").write(idx, key)
                return

    def test_counts_match_reference(self, setup):
        pipe, ref = setup
        tracked = [11, 22, 33]
        for key in tracked:
            self.install_both(pipe, ref, key)
        rng = np.random.default_rng(17)
        trace = [int(k) for k in rng.choice(tracked + [44, 55], size=300)]
        for key in trace:
            result = pipe.process(Packet(fields={"flow_id": key}))
            expected = ref.increment(key)
            assert bool(result.get("meta.ht_matched")) == expected
        for key in tracked:
            assert pipe_count(pipe, ref, key) == ref.count(key)


def pipe_count(pipe, ref, key):
    for row in range(ref.rows):
        idx = ref.slot_of(row, key)
        stored = int(pipe.registers.get(f"ht_keys[{row}]").read(idx))
        if stored == key:
            return int(pipe.registers.get(f"ht_counts[{row}]").read(idx))
    return 0
