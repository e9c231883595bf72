"""ID-indexed table: elastic P4All program.

Blink's per-flow state structure (Figure 1's "ID indexed table"): a
single register array indexed directly by a compact flow/prefix ID — no
hashing, no collisions within the tracked ID range. Only its size is
elastic; larger allocations track more IDs.
"""

from __future__ import annotations

__all__ = ["IDTABLE_SOURCE"]


#: Standalone single-structure program (library source shipped as data).
IDTABLE_SOURCE = """// Elastic ID-indexed table (Blink-style per-ID state).
symbolic int idt_size;
assume idt_size >= 1 && idt_size <= 65536;

struct metadata {
    bit<32> flow_id;
    bit<64> idt_state;
}

register<bit<64>>[idt_size] idt_table;

action idt_touch() {
    idt_table.add_read(meta.idt_state, meta.flow_id, 1);
}

control idt_update(inout metadata meta) {
    apply { idt_touch(); }
}

control Ingress(inout metadata meta) {
    apply {
        idt_update.apply(meta);
    }
}

optimize idt_size;
"""
