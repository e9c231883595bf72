"""ConQuest: in-network queue analysis with round-robin sketch snapshots.

ConQuest (Figure 1/11) estimates how much of the current queue each flow
occupies by maintaining C time-windowed count-min snapshots: the snapshot
for the current window absorbs increments while the others are read and
summed to estimate the flow's recent bytes/packets. Windows rotate
round-robin; a snapshot is cleaned before reuse, by the control plane
on rotation (the per-packet runner in ``tests/apps/reference.py``).

The data plane composes C statically-unrolled snapshot branches over one
elastic column width ``cq_cols`` — multiple instances of the sketch
structure, as the paper describes ConQuest's use of the library.
"""

from __future__ import annotations

from ..structures import compose
from ..structures.module import P4AllModule

__all__ = ["conquest_source", "conquest_module"]


def conquest_module(
    prefix: str = "cq",
    key_field: str = "meta.flow_id",
    window_field: str = "meta.window",
    snapshots: int = 4,
    max_cols: int | None = 65536,
    seed_offset: int = 400,
) -> P4AllModule:
    """Elastic ConQuest snapshot bank.

    ``snapshots`` round-robin windows (constant), each one register array
    of elastic width. After the pipeline runs, ``meta.<prefix>_est`` sums
    the flow's counters over all *non-current* snapshots — its estimated
    share of the recent queue.
    """
    cols = f"{prefix}_cols"
    assumes = []
    if max_cols is not None:
        assumes.append(f"{cols} <= {max_cols}")
    declarations = [
        f"const int {prefix}_snaps = {snapshots};",
        f"register<bit<32>>[{cols}][{prefix}_snaps] {prefix}_snap;",
        (
            f"action {prefix}_touch()[int i] {{\n"
            f"    meta.{prefix}_idx[i] = hash(i + {seed_offset}, {key_field});\n"
            f"    {prefix}_snap[i].cond_add_read(meta.{prefix}_cnt[i], "
            f"meta.{prefix}_idx[i], {window_field} == i, meta.{prefix}_amount);\n"
            f"}}"
        ),
        (
            f"action {prefix}_fold()[int i] {{\n"
            f"    meta.{prefix}_est = meta.{prefix}_est + "
            f"({window_field} == i ? 0 : meta.{prefix}_cnt[i]);\n"
            f"}}"
        ),
        (
            f"control {prefix}_snapshots(inout metadata meta) {{\n"
            f"    apply {{\n"
            f"        for (i < {prefix}_snaps) {{ {prefix}_touch()[i]; }}\n"
            f"    }}\n"
            f"}}"
        ),
        (
            f"control {prefix}_estimate(inout metadata meta) {{\n"
            f"    apply {{\n"
            f"        for (i < {prefix}_snaps) {{ {prefix}_fold()[i]; }}\n"
            f"    }}\n"
            f"}}"
        ),
    ]
    return P4AllModule(
        name=prefix,
        symbolics=[cols],
        assumes=assumes,
        metadata_fields=[
            f"bit<32>[{prefix}_snaps] {prefix}_idx;",
            f"bit<32>[{prefix}_snaps] {prefix}_cnt;",
            f"bit<32> {prefix}_est;",
            f"bit<32> {prefix}_amount;",
        ],
        declarations=declarations,
        apply_calls=[
            f"meta.{prefix}_est = 0;",
            f"{prefix}_snapshots.apply(meta);",
            f"{prefix}_estimate.apply(meta);",
        ],
        utility_term=f"{prefix}_snaps * {cols}",
    )


def conquest_source(snapshots: int = 4, max_cols: int = 65536) -> str:
    """Compose the elastic ConQuest program."""
    cq = conquest_module(snapshots=snapshots, max_cols=max_cols)
    return compose(
        modules=[cq],
        extra_metadata=[
            "bit<32> flow_id;",
            "bit<8> window;",
            "bit<32> pkt_bytes;",
        ],
        pre_apply=["meta.cq_amount = meta.pkt_bytes;"],
        extra_assumes=None,
        utility=cq.utility_term,
    )
