"""Hash tests: determinism, vector/scalar agreement, spread."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.pisa.hashing import MultiplyShiftHash


class TestMultiplyShift:
    def test_deterministic_across_instances(self):
        a = MultiplyShiftHash(7)
        b = MultiplyShiftHash(7)
        assert [a(k, width=1024) for k in range(50)] == [
            b(k, width=1024) for k in range(50)
        ]

    def test_different_seeds_differ(self):
        a = MultiplyShiftHash(1)
        b = MultiplyShiftHash(2)
        outs_a = [a(k, width=1 << 20) for k in range(100)]
        outs_b = [b(k, width=1 << 20) for k in range(100)]
        assert outs_a != outs_b

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=2**20))
    def test_in_range(self, key, width):
        fn = MultiplyShiftHash(3)
        assert 0 <= fn(key, width=width) < width

    def test_vector_matches_scalar(self):
        fn = MultiplyShiftHash(11)
        keys = np.arange(0, 500, dtype=np.uint64)
        vec = fn.vector(keys, 4096)
        scalar = [fn(int(k), width=4096) for k in keys]
        assert list(vec) == scalar

    def test_multi_argument_hashing(self):
        fn = MultiplyShiftHash(5)
        assert fn(1, 2, width=1024) != fn(2, 1, width=1024)

    def test_rough_uniformity(self):
        fn = MultiplyShiftHash(9)
        width = 64
        counts = np.zeros(width)
        for k in range(width * 200):
            counts[fn(k, width=width)] += 1
        # Each bucket within 3x of the mean — a coarse spread check.
        assert counts.max() < 3 * counts.mean()
        assert counts.min() > counts.mean() / 3

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            MultiplyShiftHash(1)(5, width=0)

    def test_vector_overflow_boundaries_match_scalar(self):
        """uint64 multiply-shift must wrap mod 2**64 bit-for-bit: the
        boundary keys would silently lose low bits under any float or
        object-dtype promotion."""
        boundary = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 63) - 1,
                    1 << 63, (1 << 64) - 1]
        keys = np.array(boundary, dtype=np.uint64)
        for seed in (0, 1, 7, 100):
            fn = MultiplyShiftHash(seed)
            for width in (2, 4096, 1 << 32):
                vec = fn.vector(keys, width)
                assert vec.dtype == np.int64
                assert list(vec) == [fn(k, width=width) for k in boundary]
            slots = fn.slot_vector(keys, cells=1021)
            assert slots.dtype == np.int64
            assert list(slots) == [fn.slot(k, cells=1021) for k in boundary]

    def test_vector_multi_overflow_boundaries_match_scalar(self):
        fn = MultiplyShiftHash(13)
        boundary = [0, (1 << 32) - 1, (1 << 64) - 1]
        cols = [np.array(boundary, dtype=np.uint64),
                np.array(boundary[::-1], dtype=np.uint64)]
        for width in (1024, 1 << 32):
            vec = fn.vector_multi(cols, width)
            assert vec.dtype == np.int64
            scalar = [fn(a, b, width=width)
                      for a, b in zip(boundary, boundary[::-1])]
            assert list(vec) == scalar

    def test_vector_multi_signed_input_wraps_like_scalar_mask(self):
        # The vector engine holds 64-bit fields as int64 bit patterns;
        # C-casting them to uint64 must equal the scalar's & (2**64-1).
        fn = MultiplyShiftHash(21)
        signed = np.array([-1, -(1 << 62), 5], dtype=np.int64)
        vec = fn.vector_multi([signed], 1 << 20)
        scalar = [fn(int(v) & ((1 << 64) - 1), width=1 << 20)
                  for v in signed]
        assert list(vec) == scalar

    def test_vector_multi_no_arguments_is_constant(self):
        fn = MultiplyShiftHash(2)
        assert int(fn.vector_multi([], 777)) == fn(width=777)

