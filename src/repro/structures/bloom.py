"""Bloom filter: reference implementation + elastic P4All module.

Partitioned Bloom filter — one bit array per hash function, the layout
used by FlowRadar/SilkRoad-style P4 code (one register array per stage).
The data-plane module *tests and inserts* in a single pass: each probe
swaps a 1 into the bit cell and reports the previous value, so
``meta.<prefix>_member`` is 1 exactly when the key was already present
(in every partition) before this packet.
"""

from __future__ import annotations

import math

import numpy as np

from ..pisa.hashing import MultiplyShiftHash
from .module import P4AllModule

__all__ = ["BloomFilter", "bloom_module", "BLOOM_SOURCE"]


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


def bloom_module(
    prefix: str = "bf",
    key_field: str = "meta.flow_id",
    max_hashes: int = 4,
    max_bits: int | None = 262144,
    seed_offset: int = 0,
) -> P4AllModule:
    """Elastic Bloom filter module.

    Elastic in both dimensions: ``<prefix>_hashes`` partitions (more
    hashes → fewer false positives per bit) and ``<prefix>_bits`` cells
    per partition. After the pipeline runs, ``meta.<prefix>_member`` is 1
    iff the key was present before this packet (which also inserted it).
    """
    hashes = f"{prefix}_hashes"
    bits = f"{prefix}_bits"
    assumes = [f"{hashes} >= 1 && {hashes} <= {max_hashes}"]
    if max_bits is not None:
        assumes.append(f"{bits} <= {max_bits}")
    declarations = [
        f"register<bit<1>>[{bits}][{hashes}] {prefix}_filter;",
        (
            f"action {prefix}_probe()[int i] {{\n"
            f"    meta.{prefix}_index[i] = hash(i + {seed_offset}, {key_field});\n"
            f"    {prefix}_filter[i].swap(meta.{prefix}_old[i], "
            f"meta.{prefix}_index[i], 1);\n"
            f"}}"
        ),
        (
            f"action {prefix}_fold()[int i] {{\n"
            f"    meta.{prefix}_member = meta.{prefix}_member & meta.{prefix}_old[i];\n"
            f"}}"
        ),
        (
            f"control {prefix}_insert(inout metadata meta) {{\n"
            f"    apply {{\n"
            f"        for (i < {hashes}) {{ {prefix}_probe()[i]; }}\n"
            f"    }}\n"
            f"}}"
        ),
        (
            f"control {prefix}_membership(inout metadata meta) {{\n"
            f"    apply {{\n"
            f"        for (i < {hashes}) {{ {prefix}_fold()[i]; }}\n"
            f"    }}\n"
            f"}}"
        ),
    ]
    return P4AllModule(
        name=prefix,
        symbolics=[hashes, bits],
        assumes=assumes,
        metadata_fields=[
            f"bit<32>[{hashes}] {prefix}_index;",
            f"bit<1>[{hashes}] {prefix}_old;",
            f"bit<1> {prefix}_member;",
        ],
        declarations=declarations,
        apply_calls=[
            f"meta.{prefix}_member = 1;",
            f"{prefix}_insert.apply(meta);",
            f"{prefix}_membership.apply(meta);",
        ],
        utility_term=f"{hashes} * {bits}",
    )


#: Standalone single-structure program (library source shipped as data).
BLOOM_SOURCE = """// Elastic Bloom filter (library module, standalone build).
symbolic int bf_hashes;
symbolic int bf_bits;
assume bf_hashes >= 1 && bf_hashes <= 4;
assume bf_bits <= 262144;

struct metadata {
    bit<32> flow_id;
    bit<32>[bf_hashes] bf_index;
    bit<1>[bf_hashes] bf_old;
    bit<1> bf_member;
}

register<bit<1>>[bf_bits][bf_hashes] bf_filter;

action bf_probe()[int i] {
    meta.bf_index[i] = hash(i, meta.flow_id);
    bf_filter[i].swap(meta.bf_old[i], meta.bf_index[i], 1);
}

action bf_fold()[int i] {
    meta.bf_member = meta.bf_member & meta.bf_old[i];
}

control bf_insert(inout metadata meta) {
    apply {
        for (i < bf_hashes) { bf_probe()[i]; }
    }
}

control bf_membership(inout metadata meta) {
    apply {
        for (i < bf_hashes) { bf_fold()[i]; }
    }
}

control Ingress(inout metadata meta) {
    apply {
        meta.bf_member = 1;
        bf_insert.apply(meta);
        bf_membership.apply(meta);
    }
}

optimize bf_hashes * bf_bits;
"""
