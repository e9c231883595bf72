"""Hash-based matrix: reference + elastic P4All module.

Figure 1 lists the "hash-based matrix" separately from the count-min
sketch: the same rows×columns register layout, but as a general
accumulator read out by the control plane (UnivMon's level sketches,
Sketchvisor's fast path, fair-queueing's per-flow state all use this
shape) rather than answering min-queries in the data plane. The module
accumulates an arbitrary per-packet quantity (bytes by default) at every
row, and leaves interpretation to the controller — so, unlike the CMS
module, it spends no pipeline stages on a fold.
"""

from __future__ import annotations

import numpy as np

from ..pisa.hashing import MultiplyShiftHash
from .module import P4AllModule

__all__ = ["HashMatrix", "matrix_module", "MATRIX_SOURCE"]


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


def matrix_module(
    prefix: str = "mx",
    key_field: str = "meta.flow_id",
    amount_field: str | None = None,
    max_rows: int = 6,
    max_cols: int | None = 65536,
    seed_offset: int = 500,
) -> P4AllModule:
    """Elastic hash-matrix module.

    ``amount_field`` selects what accumulates (None → packet count).
    Readout is control-plane only — the module never folds in the data
    plane, so its iterations are fully independent (the unroll bound
    comes from ALUs/PHV, not a stage chain).
    """
    rows = f"{prefix}_rows"
    cols = f"{prefix}_cols"
    amount = amount_field or "1"
    assumes = [f"{rows} >= 1 && {rows} <= {max_rows}"]
    if max_cols is not None:
        assumes.append(f"{cols} <= {max_cols}")
    declarations = [
        f"register<bit<32>>[{cols}][{rows}] {prefix}_matrix;",
        (
            f"action {prefix}_accumulate()[int i] {{\n"
            f"    meta.{prefix}_idx[i] = hash(i + {seed_offset}, {key_field});\n"
            f"    {prefix}_matrix[i].add(meta.{prefix}_idx[i], {amount});\n"
            f"}}"
        ),
        (
            f"control {prefix}_update(inout metadata meta) {{\n"
            f"    apply {{\n"
            f"        for (i < {rows}) {{ {prefix}_accumulate()[i]; }}\n"
            f"    }}\n"
            f"}}"
        ),
    ]
    return P4AllModule(
        name=prefix,
        symbolics=[rows, cols],
        assumes=assumes,
        metadata_fields=[f"bit<32>[{rows}] {prefix}_idx;"],
        declarations=declarations,
        apply_calls=[f"{prefix}_update.apply(meta);"],
        utility_term=f"{rows} * {cols}",
    )


#: Standalone single-structure program (library source shipped as data).
MATRIX_SOURCE = """// Elastic hash-based matrix (library module, standalone build).
symbolic int mx_rows;
symbolic int mx_cols;
assume mx_rows >= 1 && mx_rows <= 6;
assume mx_cols <= 65536;

struct metadata {
    bit<32> flow_id;
    bit<32> pkt_bytes;
    bit<32>[mx_rows] mx_idx;
}

register<bit<32>>[mx_cols][mx_rows] mx_matrix;

action mx_accumulate()[int i] {
    meta.mx_idx[i] = hash(i + 500, meta.flow_id);
    mx_matrix[i].add(meta.mx_idx[i], meta.pkt_bytes);
}

control mx_update(inout metadata meta) {
    apply {
        for (i < mx_rows) { mx_accumulate()[i]; }
    }
}

control Ingress(inout metadata meta) {
    apply {
        mx_update.apply(meta);
    }
}

optimize mx_rows * mx_cols;
"""
