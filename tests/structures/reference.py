"""Reference semantics of the library structures (the paper's Fig. 1).

Plain-Python models of five structures that ``tests/structures`` and
``tests/apps`` compare a compiled pipeline against, plus the ID-indexed
table's composable module. The P4All modules and standalone programs the
compiler builds stay in :mod:`repro.structures`; the count-min sketch
and key-value store models stay there too, because NetCache's
workload-scale simulation (``simulate_netcache``) runs them.
"""

from __future__ import annotations

import math

import numpy as np

from repro.pisa.hashing import MultiplyShiftHash
from repro.structures import P4AllModule

__all__ = ["BloomFilter", "CountingHashTable", "HierarchicalSketch",
           "IdIndexedTable", "idtable_module", "HashMatrix"]


class BloomFilter:
    """Reference partitioned Bloom filter over integer keys."""

    def __init__(self, hashes: int, bits_per_partition: int, seed_offset: int = 0):
        if hashes <= 0 or bits_per_partition <= 0:
            raise ValueError("hashes and bits_per_partition must be positive")
        self.hashes = hashes
        self.bits_per_partition = bits_per_partition
        self._fns = [MultiplyShiftHash(seed_offset + i) for i in range(hashes)]
        self.partitions = np.zeros((hashes, bits_per_partition), dtype=bool)
        self.inserted = 0

    def insert(self, key: int) -> bool:
        """Insert ``key``; returns True when it was (probably) present."""
        present = True
        for i, fn in enumerate(self._fns):
            idx = fn.slot(key, cells=self.bits_per_partition)
            present &= bool(self.partitions[i, idx])
            self.partitions[i, idx] = True
        self.inserted += 1
        return present

    def contains(self, key: int) -> bool:
        """Membership test (no false negatives)."""
        return all(
            self.partitions[i, fn.slot(key, cells=self.bits_per_partition)]
            for i, fn in enumerate(self._fns)
        )

    def clear(self) -> None:
        self.partitions.fill(False)
        self.inserted = 0

    def false_positive_rate(self) -> float:
        """Expected FPR for the current fill level (partitioned formula)."""
        fill = 1.0 - math.exp(-self.inserted / self.bits_per_partition)
        return fill ** self.hashes

    @property
    def memory_bits(self) -> int:
        return self.hashes * self.bits_per_partition

    def __repr__(self) -> str:
        return (
            f"BloomFilter(hashes={self.hashes}, "
            f"bits_per_partition={self.bits_per_partition})"
        )


class CountingHashTable:
    """Reference multi-row (key, counter) hash table."""

    def __init__(self, rows: int, cols: int, seed_offset: int = 200):
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        self.rows = rows
        self.cols = cols
        self.seed_offset = seed_offset
        self._fns = [MultiplyShiftHash(seed_offset + r) for r in range(rows)]
        self.keys = np.zeros((rows, cols), dtype=np.uint64)
        self.counts = np.zeros((rows, cols), dtype=np.uint64)

    def slot_of(self, row: int, key: int) -> int:
        return self._fns[row].slot(key, cells=self.cols)

    def increment(self, key: int, amount: int = 1) -> bool:
        """Add to ``key``'s counter if it is tracked; returns tracked?"""
        for row in range(self.rows):
            idx = self.slot_of(row, key)
            if int(self.keys[row, idx]) == key:
                self.counts[row, idx] += np.uint64(amount)
                return True
        return False

    def count(self, key: int) -> int:
        for row in range(self.rows):
            idx = self.slot_of(row, key)
            if int(self.keys[row, idx]) == key:
                return int(self.counts[row, idx])
        return 0

    def install(self, key: int, count: int = 0) -> bool:
        """Place ``key`` in the first row whose slot is empty (key 0)."""
        for row in range(self.rows):
            idx = self.slot_of(row, key)
            if int(self.keys[row, idx]) in (0, key):
                self.keys[row, idx] = np.uint64(key)
                self.counts[row, idx] = np.uint64(count)
                return True
        return False

    def replace_min(self, key: int, count: int = 1) -> int:
        """Evict the smallest-count candidate slot in favor of ``key``.

        Returns the evicted count (PRECISION's recirculation install).
        """
        best_row, best_idx, best_count = 0, 0, None
        for row in range(self.rows):
            idx = self.slot_of(row, key)
            c = int(self.counts[row, idx])
            if best_count is None or c < best_count:
                best_row, best_idx, best_count = row, idx, c
        self.keys[best_row, best_idx] = np.uint64(key)
        self.counts[best_row, best_idx] = np.uint64(count)
        return int(best_count or 0)

    def min_candidate_count(self, key: int) -> int:
        """Smallest counter among the key's candidate slots."""
        return min(
            int(self.counts[row, self.slot_of(row, key)])
            for row in range(self.rows)
        )

    def heavy_keys(self, threshold: int) -> set[int]:
        mask = self.counts >= np.uint64(threshold)
        return {int(k) for k in self.keys[mask] if int(k) != 0}

    def clear(self) -> None:
        self.keys.fill(0)
        self.counts.fill(0)

    @property
    def capacity(self) -> int:
        return self.rows * self.cols

    @property
    def memory_bits(self) -> int:
        return self.capacity * (32 + 32)

    def __repr__(self) -> str:
        return f"CountingHashTable(rows={self.rows}, cols={self.cols})"


class HierarchicalSketch:
    """Reference multi-level sketch over ``key_bits``-bit keys."""

    def __init__(self, key_bits: int, cols: int, seed_offset: int = 300):
        if key_bits <= 0 or cols <= 0:
            raise ValueError("key_bits and cols must be positive")
        self.key_bits = key_bits
        self.cols = cols
        # One hash per level; level 0 is the total-count level.
        self._fns = [MultiplyShiftHash(seed_offset + k) for k in range(key_bits + 1)]
        self.levels = np.zeros((key_bits + 1, cols), dtype=np.uint64)
        self.packets = 0

    def update(self, key: int) -> None:
        """Count ``key`` at level 0 and at every set-bit level."""
        idx0 = self._fns[0].slot(key, cells=self.cols)
        self.levels[0, idx0] += np.uint64(1)
        for bit in range(self.key_bits):
            if (key >> bit) & 1:
                idx = self._fns[bit + 1].slot(key, cells=self.cols)
                self.levels[bit + 1, idx] += np.uint64(1)
        self.packets += 1

    def bit_ratio(self, key: int, bit: int) -> float:
        """Fraction of the key's slot traffic whose bit ``bit`` is set."""
        total = int(self.levels[0, self._fns[0].slot(key, cells=self.cols)])
        if total == 0:
            return 0.0
        ones = int(self.levels[bit + 1, self._fns[bit + 1].slot(key, cells=self.cols)])
        return ones / total

    def infer_key_bits(self, key: int, lo: float = 0.3, hi: float = 0.7):
        """SketchLearn-style bit inference for a large flow in ``key``'s
        slots: returns per-bit 0/1/None (None = ambiguous)."""
        out = []
        for bit in range(self.key_bits):
            ratio = self.bit_ratio(key, bit)
            if ratio >= hi:
                out.append(1)
            elif ratio <= lo:
                out.append(0)
            else:
                out.append(None)
        return out

    @property
    def memory_bits(self) -> int:
        return (self.key_bits + 1) * self.cols * 32

    def clear(self) -> None:
        self.levels.fill(0)
        self.packets = 0

    def __repr__(self) -> str:
        return f"HierarchicalSketch(levels={self.key_bits + 1}, cols={self.cols})"


class IdIndexedTable:
    """Reference direct-indexed per-ID state table."""

    def __init__(self, size: int, width: int = 64):
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self.width = width
        self.mask = (1 << width) - 1
        self.cells = np.zeros(size, dtype=np.uint64)

    def in_range(self, ident: int) -> bool:
        return 0 <= ident < self.size

    def get(self, ident: int) -> int:
        return int(self.cells[ident % self.size])

    def set(self, ident: int, value: int) -> None:
        self.cells[ident % self.size] = np.uint64(value & self.mask)

    def add(self, ident: int, amount: int = 1) -> int:
        idx = ident % self.size
        self.cells[idx] = np.uint64((int(self.cells[idx]) + amount) & self.mask)
        return int(self.cells[idx])

    @property
    def memory_bits(self) -> int:
        return self.size * self.width

    def clear(self) -> None:
        self.cells.fill(0)

    def __repr__(self) -> str:
        return f"IdIndexedTable(size={self.size}, width={self.width})"


def idtable_module(
    prefix: str = "idt",
    id_field: str = "meta.flow_id",
    cell_bits: int = 64,
    max_size: int | None = 65536,
) -> P4AllModule:
    """Elastic ID-indexed table module.

    The data plane increments the ID's cell and reports its new value in
    ``meta.<prefix>_state``; the controller reads/writes cells directly.
    """
    size = f"{prefix}_size"
    assumes = [f"{size} >= 1"]
    if max_size is not None:
        assumes.append(f"{size} <= {max_size}")
    declarations = [
        f"register<bit<{cell_bits}>>[{size}] {prefix}_table;",
        (
            f"action {prefix}_touch() {{\n"
            f"    {prefix}_table.add_read(meta.{prefix}_state, {id_field}, 1);\n"
            f"}}"
        ),
        (
            f"control {prefix}_update(inout metadata meta) {{\n"
            f"    apply {{ {prefix}_touch(); }}\n"
            f"}}"
        ),
    ]
    return P4AllModule(
        name=prefix,
        symbolics=[size],
        assumes=assumes,
        metadata_fields=[f"bit<{cell_bits}> {prefix}_state;"],
        declarations=declarations,
        apply_calls=[f"{prefix}_update.apply(meta);"],
        utility_term=size,
    )


class HashMatrix:
    """Reference rows×cols accumulator matrix over integer keys."""

    def __init__(self, rows: int, cols: int, width: int = 32, seed_offset: int = 500):
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        self.rows = rows
        self.cols = cols
        self.mask = (1 << width) - 1
        self._fns = [MultiplyShiftHash(seed_offset + r) for r in range(rows)]
        self.table = np.zeros((rows, cols), dtype=np.uint64)

    def update(self, key: int, amount: int = 1) -> None:
        """Accumulate ``amount`` into the key's cell of every row."""
        for row, fn in enumerate(self._fns):
            idx = fn.slot(key, cells=self.cols)
            self.table[row, idx] = np.uint64(
                (int(self.table[row, idx]) + amount) & self.mask
            )

    def row_values(self, key: int) -> list[int]:
        """The key's cell value in each row (controller readout)."""
        return [
            int(self.table[row, fn.slot(key, cells=self.cols)])
            for row, fn in enumerate(self._fns)
        ]

    def median_estimate(self, key: int) -> int:
        """Median-of-rows readout (the usual unbiased matrix estimator)."""
        return int(np.median(self.row_values(key)))

    def total(self) -> int:
        """Sum of one row (each row sees all traffic)."""
        return int(self.table[0].sum())

    @property
    def memory_bits(self) -> int:
        return self.rows * self.cols * 32

    def clear(self) -> None:
        self.table.fill(0)

    def __repr__(self) -> str:
        return f"HashMatrix(rows={self.rows}, cols={self.cols})"
