"""Hierarchical (multi-level) sketch: elastic P4All module.

SketchLearn's data structure (Figure 1's "hierarchical sketch"): one
counter level per bit of the flow identifier plus a level-0 total. Level
``k`` counts the packets whose key has bit ``k`` set; the per-level
ratios let the controller extract large flows and their identifiers. The
number of levels is fixed by the key width — only the per-level column
count is elastic, which is why SketchLearn's ILP is tiny in Figure 11.
"""

from __future__ import annotations

from .module import P4AllModule

__all__ = ["hierarchical_module", "SKETCHLEARN_SOURCE"]


def hierarchical_module(
    prefix: str = "sl",
    key_field: str = "meta.flow_id",
    key_bits: int = 8,
    max_cols: int | None = 65536,
    seed_offset: int = 300,
) -> P4AllModule:
    """Elastic hierarchical sketch module.

    ``key_bits + 1`` levels (constant — unrolled statically), each a
    register array of the shared elastic width ``<prefix>_cols``.
    """
    cols = f"{prefix}_cols"
    levels = key_bits + 1
    assumes = []
    if max_cols is not None:
        assumes.append(f"{cols} <= {max_cols}")
    declarations = [
        f"const int {prefix}_levels = {levels};",
        f"register<bit<32>>[{cols}][{prefix}_levels] {prefix}_lvl;",
        (
            f"action {prefix}_count()[int i] {{\n"
            f"    meta.{prefix}_idx[i] = hash(i + {seed_offset}, {key_field});\n"
            f"    {prefix}_lvl[i].cond_add(meta.{prefix}_idx[i], "
            f"(i == 0) || ((({key_field} >> (i - 1)) & 1) == 1), 1);\n"
            f"}}"
        ),
        (
            f"control {prefix}_levels_update(inout metadata meta) {{\n"
            f"    apply {{\n"
            f"        for (i < {prefix}_levels) {{ {prefix}_count()[i]; }}\n"
            f"    }}\n"
            f"}}"
        ),
    ]
    return P4AllModule(
        name=prefix,
        symbolics=[cols],
        assumes=assumes,
        metadata_fields=[
            f"bit<32>[{prefix}_levels] {prefix}_idx;",
        ],
        declarations=declarations,
        apply_calls=[f"{prefix}_levels_update.apply(meta);"],
        utility_term=f"{prefix}_levels * {cols}",
    )


#: Standalone SketchLearn-style program (library source shipped as data).
SKETCHLEARN_SOURCE = """// Elastic hierarchical sketch (SketchLearn-style levels).
symbolic int sl_cols;
assume sl_cols <= 65536;

const int sl_levels = 9;

struct metadata {
    bit<32> flow_id;
    bit<32>[sl_levels] sl_idx;
}

register<bit<32>>[sl_cols][sl_levels] sl_lvl;

action sl_count()[int i] {
    meta.sl_idx[i] = hash(i + 300, meta.flow_id);
    sl_lvl[i].cond_add(meta.sl_idx[i], (i == 0) || (((meta.flow_id >> (i - 1)) & 1) == 1), 1);
}

control sl_levels_update(inout metadata meta) {
    apply {
        for (i < sl_levels) { sl_count()[i]; }
    }
}

control Ingress(inout metadata meta) {
    apply {
        sl_levels_update.apply(meta);
    }
}

optimize sl_levels * sl_cols;
"""
