"""Counting hash table: reference implementation + elastic P4All module.

The multi-row key/counter table used by PRECISION / HashPipe-style heavy
hitter algorithms: each row pairs a key array with a counter array; a
packet probes its hashed slot in every row and increments the counter of
the row whose stored key matches (a predicated stateful update). Entry
installation/replacement is a control-plane decision (PRECISION uses
probabilistic recirculation; the application harness models that).
"""

from __future__ import annotations

import numpy as np

from ..pisa.hashing import MultiplyShiftHash
from .module import P4AllModule

__all__ = ["CountingHashTable", "hashtable_module", "HASHTABLE_SOURCE"]


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


def hashtable_module(
    prefix: str = "ht",
    key_field: str = "meta.flow_id",
    max_rows: int | None = None,
    max_cols: int | None = 65536,
    seed_offset: int = 200,
) -> P4AllModule:
    """Elastic counting hash table module.

    After the pipeline runs, ``meta.<prefix>_matched`` is 1 when some row
    tracked the key (and its counter was incremented), and
    ``meta.<prefix>_mincnt`` holds the smallest candidate counter (used by
    PRECISION's eviction policy).
    """
    rows = f"{prefix}_rows"
    cols = f"{prefix}_cols"
    assumes = [f"{rows} >= 1"]
    if max_rows is not None:
        assumes.append(f"{rows} <= {max_rows}")
    if max_cols is not None:
        assumes.append(f"{cols} <= {max_cols}")
    declarations = [
        f"register<bit<32>>[{cols}][{rows}] {prefix}_keys;",
        f"register<bit<32>>[{cols}][{rows}] {prefix}_counts;",
        (
            f"action {prefix}_probe()[int i] {{\n"
            f"    meta.{prefix}_idx[i] = hash(i + {seed_offset}, {key_field});\n"
            f"    {prefix}_keys[i].read(meta.{prefix}_skey[i], meta.{prefix}_idx[i]);\n"
            f"    {prefix}_counts[i].cond_add_read(meta.{prefix}_cnt[i], "
            f"meta.{prefix}_idx[i], meta.{prefix}_skey[i] == {key_field}, 1);\n"
            f"}}"
        ),
        (
            f"action {prefix}_match()[int i] {{\n"
            f"    meta.{prefix}_matched = meta.{prefix}_matched | "
            f"(meta.{prefix}_skey[i] == {key_field} ? 1 : 0);\n"
            f"}}"
        ),
        (
            f"action {prefix}_track_min()[int i] {{\n"
            f"    meta.{prefix}_mincnt = meta.{prefix}_cnt[i];\n"
            f"}}"
        ),
        (
            f"control {prefix}_update(inout metadata meta) {{\n"
            f"    apply {{\n"
            f"        for (i < {rows}) {{ {prefix}_probe()[i]; }}\n"
            f"    }}\n"
            f"}}"
        ),
        (
            f"control {prefix}_aggregate(inout metadata meta) {{\n"
            f"    apply {{\n"
            f"        for (i < {rows}) {{\n"
            f"            {prefix}_match()[i];\n"
            f"            if (meta.{prefix}_cnt[i] < meta.{prefix}_mincnt) "
            f"{{ {prefix}_track_min()[i]; }}\n"
            f"        }}\n"
            f"    }}\n"
            f"}}"
        ),
    ]
    return P4AllModule(
        name=prefix,
        symbolics=[rows, cols],
        assumes=assumes,
        metadata_fields=[
            f"bit<32>[{rows}] {prefix}_idx;",
            f"bit<32>[{rows}] {prefix}_skey;",
            f"bit<32>[{rows}] {prefix}_cnt;",
            f"bit<1> {prefix}_matched;",
            f"bit<32> {prefix}_mincnt;",
        ],
        declarations=declarations,
        apply_calls=[
            f"meta.{prefix}_matched = 0;",
            f"meta.{prefix}_mincnt = {(1 << 32) - 1};",
            f"{prefix}_update.apply(meta);",
            f"{prefix}_aggregate.apply(meta);",
        ],
        utility_term=f"{rows} * {cols}",
    )


#: Standalone single-structure program (library source shipped as data).
HASHTABLE_SOURCE = """// Elastic counting hash table (library module, standalone build).
symbolic int ht_rows;
symbolic int ht_cols;
assume ht_rows >= 1;
assume ht_cols <= 65536;

struct metadata {
    bit<32> flow_id;
    bit<32>[ht_rows] ht_idx;
    bit<32>[ht_rows] ht_skey;
    bit<32>[ht_rows] ht_cnt;
    bit<1> ht_matched;
    bit<32> ht_mincnt;
}

register<bit<32>>[ht_cols][ht_rows] ht_keys;
register<bit<32>>[ht_cols][ht_rows] ht_counts;

action ht_probe()[int i] {
    meta.ht_idx[i] = hash(i + 200, meta.flow_id);
    ht_keys[i].read(meta.ht_skey[i], meta.ht_idx[i]);
    ht_counts[i].cond_add_read(meta.ht_cnt[i], meta.ht_idx[i], meta.ht_skey[i] == meta.flow_id, 1);
}

action ht_match()[int i] {
    meta.ht_matched = meta.ht_matched | (meta.ht_skey[i] == meta.flow_id ? 1 : 0);
}

action ht_track_min()[int i] {
    meta.ht_mincnt = meta.ht_cnt[i];
}

control ht_update(inout metadata meta) {
    apply {
        for (i < ht_rows) { ht_probe()[i]; }
    }
}

control ht_aggregate(inout metadata meta) {
    apply {
        for (i < ht_rows) {
            ht_match()[i];
            if (meta.ht_cnt[i] < meta.ht_mincnt) { ht_track_min()[i]; }
        }
    }
}

control Ingress(inout metadata meta) {
    apply {
        meta.ht_matched = 0;
        meta.ht_mincnt = 4294967295;
        ht_update.apply(meta);
        ht_aggregate.apply(meta);
    }
}

optimize ht_rows * ht_cols;
"""
