"""The deterministic hash family of the data plane.

PISA switches provide per-stage hash units. The simulator and the
reference data structures must agree bit-for-bit, so both use
:class:`MultiplyShiftHash` — 2-universal multiply-shift hashing, which
vectorizes over numpy arrays and so keeps trace-scale experiments fast.

Hash functions are constructed from an integer ``seed`` so that "row i of
the sketch uses hash function h_i" is simply ``MultiplyShiftHash(i)``.
"""

from __future__ import annotations

import random

import numpy as np

__all__ = ["MultiplyShiftHash", "stacked_vector"]

_MASK64 = (1 << 64) - 1


#: Output width of a switch hash unit (32-bit result deposited in the PHV).
HASH_UNIT_WIDTH = 1 << 32


class MultiplyShiftHash:
    """Dietzfelbinger-style multiply-shift hashing with seeded parameters.

    For multi-argument calls the arguments are combined pairwise with
    distinct odd multipliers before the final shift, which preserves
    2-universality for the combined key.
    """

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(0x9E3779B97F4A7C15 ^ (seed * 0xBF58476D1CE4E5B9 & _MASK64))
        # Odd multipliers, one per argument position (grown on demand).
        self._rng = rng
        self._multipliers: list[int] = []
        self._addend = rng.getrandbits(64)

    def _multiplier(self, position: int) -> int:
        while len(self._multipliers) <= position:
            self._multipliers.append(self._rng.getrandbits(64) | 1)
        return self._multipliers[position]

    def _mix(self, *values: int) -> int:
        acc = self._addend
        for pos, value in enumerate(values):
            acc = (acc + self._multiplier(pos) * (int(value) & _MASK64)) & _MASK64
        # Final avalanche (splitmix64 finalizer).
        acc ^= acc >> 30
        acc = (acc * 0xBF58476D1CE4E5B9) & _MASK64
        acc ^= acc >> 27
        acc = (acc * 0x94D049BB133111EB) & _MASK64
        acc ^= acc >> 31
        return acc

    def __call__(self, *values: int, width: int) -> int:
        if width <= 0:
            raise ValueError("hash width must be positive")
        return self._mix(*values) % width

    def vector(self, values: np.ndarray, width: int) -> np.ndarray:
        """Vectorized variant over a 1-D array of keys."""
        return self.bind_vector(1, width)(np.asarray(values, dtype=np.uint64))

    def slot(self, *values: int, cells: int) -> int:
        """Register-slot index exactly as the data plane computes it: a
        32-bit hash-unit output reduced modulo the register size. (For
        non-power-of-two sizes this differs from hashing directly into
        ``[0, cells)``, so reference structures must use this method to
        stay bit-identical with the pipeline simulator.)"""
        return self(*values, width=HASH_UNIT_WIDTH) % cells

    def slot_vector(self, values: np.ndarray, cells: int) -> np.ndarray:
        """Vectorized :meth:`slot`."""
        out = self.vector(values, HASH_UNIT_WIDTH)
        return (out.astype(np.uint64) % np.uint64(cells)).astype(np.int64)

    def vector_multi(self, columns, width: int) -> np.ndarray:
        """Vectorized multi-argument hash: one array per argument
        position, combined as in :meth:`_mix`. Signed inputs are C-cast,
        which equals the scalar's ``value & (2**64 - 1)``."""
        if not columns:
            return np.asarray(self(width=width), dtype=np.int64)
        return self.bind_vector(len(columns), width)(
            *(np.asarray(c).astype(np.uint64) for c in columns))

    def bind_vector(self, nargs: int, width: int):
        """``hash(*args) % width`` as a function of whole columns, every
        constant bound once: takes one 8-byte integer array per argument
        and returns the ``int64`` hashes."""
        return _multiply_shift(
            [np.uint64(self._multiplier(pos)) for pos in range(nargs)],
            np.uint64(self._addend), width)


def _multiply_shift(mults: list, addend, width: int):
    """The multiply-shift hash of one column per multiplier, in uint64
    arrays (wraparound mod 2**64): :meth:`MultiplyShiftHash._mix`'s bits."""
    if width <= 0:
        raise ValueError("hash width must be positive")
    u64 = np.uint64
    s30, s27, s31 = u64(30), u64(27), u64(31)
    c1, c2 = u64(0xBF58476D1CE4E5B9), u64(0x94D049BB133111EB)
    # A power-of-two width (the hash unit's 2**32) is a mask.
    low_bits = u64(width - 1) if width & (width - 1) == 0 else None
    modulus = u64(width)

    def hashed(first, *rest):
        acc = first.view(u64) * mults[0]
        for mult, column in zip(mults[1:], rest):
            acc += column.view(u64) * mult
        acc += addend
        # Final avalanche (splitmix64 finalizer).
        acc ^= acc >> s30
        acc *= c1
        acc ^= acc >> s27
        acc *= c2
        acc ^= acc >> s31
        if low_bits is None:
            acc %= modulus
        else:
            acc &= low_bits
        return acc.view(np.int64)

    return hashed


def stacked_vector(fns: list, width: int, nargs: int = 1):
    """A function of ``nargs`` key arrays giving ``fns[i]``'s hash of
    them in row ``i``, all rows in one two-dimensional pass."""
    def column(values):
        return np.array(values, dtype=np.uint64)[:, None]

    return _multiply_shift(
        [column([fn._multiplier(pos) for fn in fns]) for pos in range(nargs)],
        column([fn._addend for fn in fns]), width)
