"""Bloom filter: reference properties + simulator cross-validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import compile_source
from repro.pisa import Packet, Pipeline, small_target
from repro.structures import BLOOM_SOURCE

from tests.structures.reference import BloomFilter


class TestReferenceProperties:
    def test_no_false_negatives(self):
        bf = BloomFilter(hashes=3, bits_per_partition=256)
        keys = list(range(1, 60))
        for key in keys:
            bf.insert(key)
        assert all(bf.contains(key) for key in keys)

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.integers(1, 10_000), min_size=1, max_size=100))
    def test_no_false_negatives_property(self, keys):
        bf = BloomFilter(hashes=2, bits_per_partition=512)
        for key in keys:
            bf.insert(key)
        assert all(bf.contains(key) for key in keys)

    def test_insert_reports_prior_presence(self):
        bf = BloomFilter(hashes=4, bits_per_partition=1024)
        assert bf.insert(42) is False  # new
        assert bf.insert(42) is True   # already present

    def test_false_positive_rate_reasonable(self):
        bf = BloomFilter(hashes=4, bits_per_partition=4096)
        rng = np.random.default_rng(5)
        inserted = set(int(k) for k in rng.integers(1, 1 << 30, size=1000))
        for key in inserted:
            bf.insert(key)
        probes = [int(k) for k in rng.integers(1 << 30, 1 << 31, size=5000)]
        fp = sum(1 for p in probes if bf.contains(p)) / len(probes)
        # Expected FPR ≈ (1 - e^(-1000/4096))^4 ≈ 0.2%; allow 10x margin.
        assert fp < 0.02

    def test_fpr_formula_monotone_in_fill(self):
        bf = BloomFilter(hashes=3, bits_per_partition=128)
        before = bf.false_positive_rate()
        for key in range(50):
            bf.insert(key)
        assert bf.false_positive_rate() > before

    def test_clear(self):
        bf = BloomFilter(hashes=2, bits_per_partition=64)
        bf.insert(7)
        bf.clear()
        assert not bf.contains(7)


class TestPipelineCrossValidation:
    @pytest.fixture(scope="class")
    def setup(self):
        compiled = compile_source(
            BLOOM_SOURCE, small_target(stages=6, memory_kb=32)
        )
        pipe = Pipeline(compiled)
        hashes = compiled.symbol_values["bf_hashes"]
        bits = compiled.symbol_values["bf_bits"]
        ref = BloomFilter(hashes=hashes, bits_per_partition=bits, seed_offset=0)
        return pipe, ref

    def test_membership_matches_reference(self, setup):
        pipe, ref = setup
        rng = np.random.default_rng(11)
        keys = [int(k) for k in rng.integers(1, 500, size=300)]
        for key in keys:
            result = pipe.process(Packet(fields={"flow_id": key}))
            expected = ref.insert(key)
            assert bool(result.get("meta.bf_member")) == expected, key

    def test_partitions_identical(self, setup):
        pipe, ref = setup
        for i in range(ref.hashes):
            dump = pipe.register_dump("bf_filter", i).astype(bool)
            assert np.array_equal(dump, ref.partitions[i])
