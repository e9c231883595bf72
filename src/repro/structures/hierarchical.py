"""Hierarchical (multi-level) sketch: reference + elastic P4All module.

SketchLearn's data structure (Figure 1's "hierarchical sketch"): one
counter level per bit of the flow identifier plus a level-0 total. Level
``k`` counts the packets whose key has bit ``k`` set; the per-level
ratios let the controller extract large flows and their identifiers. The
number of levels is fixed by the key width — only the per-level column
count is elastic, which is why SketchLearn's ILP is tiny in Figure 11.
"""

from __future__ import annotations

import numpy as np

from ..pisa.hashing import MultiplyShiftHash
from .module import P4AllModule

__all__ = ["HierarchicalSketch", "hierarchical_module", "SKETCHLEARN_SOURCE"]


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
