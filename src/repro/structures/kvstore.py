"""Key-value store: reference implementation + elastic P4All module.

The NetCache-style on-switch cache (§3.1): values live in per-stage
register arrays; the control plane installs hot keys; the data plane
probes every row, compares the stored key, and OR-selects the matching
value. Items are deliberately *wide* (a 32-bit key plus ``value_slices``
64-bit value words) — the paper's Figure 12 notes that "the key-value
items are far larger than the sketch items", which is what drives the
memory split between the KVS and the CMS.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..pisa.hashing import MultiplyShiftHash
from .module import P4AllModule

__all__ = ["KeyValueStore", "kv_module", "KV_SOURCE"]


@dataclass
class _Slot:
    key: int
    value: int


class KeyValueStore:
    """Reference multi-row hashed key-value cache.

    ``rows`` register-array rows of ``cols`` slots each; a key may only
    live at slot ``h_r(key)`` of some row ``r`` (exactly where the data
    plane probes). ``insert`` places the key in the first row whose slot
    is free; ``lookup`` scans all rows.
    """

    def __init__(self, rows: int, cols: int, value_slices: int = 2,
                 seed_offset: int = 100):
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        self.rows = rows
        self.cols = cols
        self.value_slices = value_slices
        self.seed_offset = seed_offset
        self._fns = [MultiplyShiftHash(seed_offset + r) for r in range(rows)]
        self._slots: list[dict[int, _Slot]] = [dict() for _ in range(rows)]

    # -- operations ------------------------------------------------------------
    def slot_of(self, row: int, key: int) -> int:
        return self._fns[row].slot(key, cells=self.cols)

    def lookup(self, key: int) -> int | None:
        """Value for ``key`` or None on miss."""
        for row in range(self.rows):
            slot = self._slots[row].get(self.slot_of(row, key))
            if slot is not None and slot.key == key:
                return slot.value
        return None

    def insert(self, key: int, value: int) -> bool:
        """Install ``key``; False when every candidate slot is taken."""
        if self.lookup(key) is not None:
            self.update(key, value)
            return True
        for row in range(self.rows):
            idx = self.slot_of(row, key)
            if idx not in self._slots[row]:
                self._slots[row][idx] = _Slot(key, value)
                return True
        return False

    def update(self, key: int, value: int) -> bool:
        for row in range(self.rows):
            slot = self._slots[row].get(self.slot_of(row, key))
            if slot is not None and slot.key == key:
                slot.value = value
                return True
        return False

    def occupant(self, row: int, key: int) -> int | None:
        """Key currently holding ``key``'s candidate slot in ``row``."""
        slot = self._slots[row].get(self.slot_of(row, key))
        return slot.key if slot is not None else None

    def replace(self, row: int, key: int, value: int) -> int | None:
        """Overwrite ``key``'s candidate slot in ``row``; returns the
        evicted key (None if the slot was free)."""
        idx = self.slot_of(row, key)
        old = self._slots[row].get(idx)
        self._slots[row][idx] = _Slot(key, value)
        return old.key if old is not None else None

    def evict(self, key: int) -> bool:
        for row in range(self.rows):
            idx = self.slot_of(row, key)
            slot = self._slots[row].get(idx)
            if slot is not None and slot.key == key:
                del self._slots[row][idx]
                return True
        return False

    def keys(self) -> set[int]:
        return {
            slot.key for row in self._slots for slot in row.values()
        }

    @property
    def occupancy(self) -> int:
        return sum(len(row) for row in self._slots)

    @property
    def capacity(self) -> int:
        return self.rows * self.cols

    @property
    def item_bits(self) -> int:
        """Bits per item: 32-bit key + 64-bit value slices."""
        return 32 + 64 * self.value_slices

    @property
    def memory_bits(self) -> int:
        return self.capacity * self.item_bits

    def clear(self) -> None:
        for row in self._slots:
            row.clear()

    def __repr__(self) -> str:
        return (
            f"KeyValueStore(rows={self.rows}, cols={self.cols}, "
            f"{self.occupancy}/{self.capacity} slots)"
        )


def kv_module(
    prefix: str = "kv",
    key_field: str = "meta.flow_id",
    value_slices: int = 2,
    max_rows: int | None = None,
    max_cols: int | None = 65536,
    min_total_bits: int | None = None,
    seed_offset: int = 100,
) -> P4AllModule:
    """Elastic key-value store module.

    After the pipeline runs, ``meta.<prefix>_hit`` is 1 on a cache hit and
    ``meta.<prefix>_val`` holds slice 0 of the value. ``min_total_bits``
    emits the paper's Figure-13 style floor
    (``assume kv_rows * kv_cols * item_bits >= ...``).
    """
    rows = f"{prefix}_rows"
    cols = f"{prefix}_cols"
    item_bits = 32 + 64 * value_slices
    assumes = [f"{rows} >= 1"]
    if max_rows is not None:
        assumes.append(f"{rows} <= {max_rows}")
    if max_cols is not None:
        assumes.append(f"{cols} <= {max_cols}")
    if min_total_bits is not None:
        assumes.append(f"{rows} * {cols} * {item_bits} >= {min_total_bits}")

    probe_body = [
        f"    meta.{prefix}_idx[i] = hash(i + {seed_offset}, {key_field});",
        f"    {prefix}_keys[i].read(meta.{prefix}_skey[i], meta.{prefix}_idx[i]);",
    ]
    val_regs = []
    for slice_no in range(value_slices):
        val_regs.append(
            f"register<bit<64>>[{cols}][{rows}] {prefix}_val{slice_no};"
        )
        probe_body.append(
            f"    {prefix}_val{slice_no}[i].read(meta.{prefix}_sval{slice_no}[i], "
            f"meta.{prefix}_idx[i]);"
        )
    declarations = [
        f"register<bit<32>>[{cols}][{rows}] {prefix}_keys;",
        *val_regs,
        "action " + prefix + "_probe()[int i] {\n" + "\n".join(probe_body) + "\n}",
        (
            f"action {prefix}_select()[int i] {{\n"
            f"    meta.{prefix}_hit = meta.{prefix}_hit | "
            f"(meta.{prefix}_skey[i] == {key_field} ? 1 : 0);\n"
            f"    meta.{prefix}_val = meta.{prefix}_val | "
            f"(meta.{prefix}_skey[i] == {key_field} ? "
            f"meta.{prefix}_sval0[i] : 0);\n"
            f"}}"
        ),
        (
            f"control {prefix}_lookup(inout metadata meta) {{\n"
            f"    apply {{\n"
            f"        for (i < {rows}) {{ {prefix}_probe()[i]; }}\n"
            f"    }}\n"
            f"}}"
        ),
        (
            f"control {prefix}_resolve(inout metadata meta) {{\n"
            f"    apply {{\n"
            f"        for (i < {rows}) {{ {prefix}_select()[i]; }}\n"
            f"    }}\n"
            f"}}"
        ),
    ]
    metadata_fields = [
        f"bit<32>[{rows}] {prefix}_idx;",
        f"bit<32>[{rows}] {prefix}_skey;",
        f"bit<1> {prefix}_hit;",
        f"bit<64> {prefix}_val;",
    ]
    for slice_no in range(value_slices):
        metadata_fields.append(f"bit<64>[{rows}] {prefix}_sval{slice_no};")
    return P4AllModule(
        name=prefix,
        symbolics=[rows, cols],
        assumes=assumes,
        metadata_fields=metadata_fields,
        declarations=declarations,
        apply_calls=[
            f"meta.{prefix}_hit = 0;",
            f"meta.{prefix}_val = 0;",
            f"{prefix}_lookup.apply(meta);",
            f"{prefix}_resolve.apply(meta);",
        ],
        utility_term=f"{rows} * {cols}",
    )


#: Standalone single-structure program (library source shipped as data).
KV_SOURCE = """// Elastic key-value store (library module, standalone build).
symbolic int kv_rows;
symbolic int kv_cols;
assume kv_rows >= 1;
assume kv_cols <= 65536;

struct metadata {
    bit<32> flow_id;
    bit<32>[kv_rows] kv_idx;
    bit<32>[kv_rows] kv_skey;
    bit<64>[kv_rows] kv_sval0;
    bit<1> kv_hit;
    bit<64> kv_val;
}

register<bit<32>>[kv_cols][kv_rows] kv_keys;
register<bit<64>>[kv_cols][kv_rows] kv_val0;

action kv_probe()[int i] {
    meta.kv_idx[i] = hash(i + 100, meta.flow_id);
    kv_keys[i].read(meta.kv_skey[i], meta.kv_idx[i]);
    kv_val0[i].read(meta.kv_sval0[i], meta.kv_idx[i]);
}

action kv_select()[int i] {
    meta.kv_hit = meta.kv_hit | (meta.kv_skey[i] == meta.flow_id ? 1 : 0);
    meta.kv_val = meta.kv_val | (meta.kv_skey[i] == meta.flow_id ? meta.kv_sval0[i] : 0);
}

control kv_lookup(inout metadata meta) {
    apply {
        for (i < kv_rows) { kv_probe()[i]; }
    }
}

control kv_resolve(inout metadata meta) {
    apply {
        for (i < kv_rows) { kv_select()[i]; }
    }
}

control Ingress(inout metadata meta) {
    apply {
        meta.kv_hit = 0;
        meta.kv_val = 0;
        kv_lookup.apply(meta);
        kv_resolve.apply(meta);
    }
}

optimize kv_rows * kv_cols;
"""
