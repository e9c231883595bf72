"""Count-min sketch: reference implementation + elastic P4All module.

The CMS is the paper's running example (§3.1/3.2, Figures 5/6). Two
artifacts live here:

* :class:`CountMinSketch` — a fast numpy reference implementation with
  the textbook (ε, δ) error guarantees, used for workload-scale
  experiments and for cross-validating the pipeline simulator;
* :func:`cms_module` — the elastic P4All source, parameterized by a name
  prefix and key field so applications can instantiate several sketches.

Both use the same hash family (:mod:`repro.pisa.hashing`), so a compiled
sketch run through the PISA simulator produces *identical* counters to
the reference at equal (rows, cols).
"""

from __future__ import annotations

import math

import numpy as np

from ..pisa.hashing import MultiplyShiftHash
from .module import P4AllModule

__all__ = ["CountMinSketch", "cms_module", "CMS_SOURCE"]


class CountMinSketch:
    """Reference count-min sketch over integer keys.

    ``rows`` independent hash functions over ``cols`` counters each; an
    estimate is the minimum of a key's counters and never underestimates.
    """

    def __init__(self, rows: int, cols: int, width: int = 32, seed_offset: int = 0):
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        self.rows = rows
        self.cols = cols
        self.mask = (1 << width) - 1
        self.seed_offset = seed_offset
        self._hashes = [MultiplyShiftHash(seed_offset + r) for r in range(rows)]
        self.table = np.zeros((rows, cols), dtype=np.uint64)
        self.items_seen = 0

    # -- updates / queries ------------------------------------------------------
    def update(self, key: int, amount: int = 1) -> int:
        """Add ``amount`` to ``key``; returns the new estimate."""
        est = self.mask
        for r, h in enumerate(self._hashes):
            c = h.slot(key, cells=self.cols)
            new = (int(self.table[r, c]) + amount) & self.mask
            self.table[r, c] = new
            est = min(est, new)
        self.items_seen += amount
        return est

    def estimate(self, key: int) -> int:
        """Point query: min over the key's counters (never underestimates)."""
        return min(
            int(self.table[r, h.slot(key, cells=self.cols)])
            for r, h in enumerate(self._hashes)
        )

    def update_many(self, keys: np.ndarray) -> None:
        """Vectorized bulk update (unit increments)."""
        keys = np.asarray(keys)
        for r, h in enumerate(self._hashes):
            idx = h.slot_vector(keys, self.cols)
            np.add.at(self.table[r], idx, 1)
        self.items_seen += len(keys)

    def estimate_many(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys)
        ests = np.full(len(keys), np.iinfo(np.uint64).max, dtype=np.uint64)
        for r, h in enumerate(self._hashes):
            idx = h.slot_vector(keys, self.cols)
            ests = np.minimum(ests, self.table[r][idx])
        return ests.astype(np.int64)

    def clear(self) -> None:
        self.table.fill(0)
        self.items_seen = 0

    # -- analytics ------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """Error factor: overestimate ≤ ε·N with probability 1 − δ."""
        return math.e / self.cols

    @property
    def delta(self) -> float:
        """Failure probability of the ε·N bound."""
        return math.exp(-self.rows)

    def error_bound(self) -> float:
        """Absolute additive error bound ε·N for the traffic seen so far."""
        return self.epsilon * self.items_seen

    @property
    def memory_bits(self) -> int:
        return self.rows * self.cols * 32

    def __repr__(self) -> str:
        return f"CountMinSketch(rows={self.rows}, cols={self.cols})"


def cms_module(
    prefix: str = "cms",
    key_field: str = "meta.flow_id",
    rows_sym: str | None = None,
    cols_sym: str | None = None,
    max_rows: int = 4,
    max_cols: int | None = 65536,
    counter_bits: int = 32,
    seed_offset: int = 0,
    weight_in_utility: bool = True,
) -> P4AllModule:
    """Elastic count-min sketch module (the paper's Figure 6).

    After the pipeline runs, ``meta.<prefix>_min`` holds the estimate for
    the packet's key *including* the current packet. The ``assume`` caps
    mirror §3.2.1's diminishing-returns guidance (≤ ``max_rows`` hash
    functions) and §5's memory-capping practice (``max_cols``).
    """
    rows = rows_sym or f"{prefix}_rows"
    cols = cols_sym or f"{prefix}_cols"
    assumes = [f"{rows} >= 1 && {rows} <= {max_rows}"]
    if max_cols is not None:
        assumes.append(f"{cols} <= {max_cols}")
    declarations = [
        f"register<bit<{counter_bits}>>[{cols}][{rows}] {prefix}_sketch;",
        (
            f"action {prefix}_incr()[int i] {{\n"
            f"    meta.{prefix}_index[i] = hash(i + {seed_offset}, {key_field});\n"
            f"    {prefix}_sketch[i].add_read(meta.{prefix}_count[i], "
            f"meta.{prefix}_index[i], 1);\n"
            f"}}"
        ),
        (
            f"action {prefix}_take_min()[int i] {{\n"
            f"    meta.{prefix}_min = meta.{prefix}_count[i];\n"
            f"}}"
        ),
        (
            f"control {prefix}_hash_inc(inout metadata meta) {{\n"
            f"    apply {{\n"
            f"        for (i < {rows}) {{ {prefix}_incr()[i]; }}\n"
            f"    }}\n"
            f"}}"
        ),
        (
            f"control {prefix}_find_min(inout metadata meta) {{\n"
            f"    apply {{\n"
            f"        for (i < {rows}) {{\n"
            f"            if (meta.{prefix}_count[i] < meta.{prefix}_min) "
            f"{{ {prefix}_take_min()[i]; }}\n"
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
            f"bit<32>[{rows}] {prefix}_index;",
            f"bit<{counter_bits}>[{rows}] {prefix}_count;",
            f"bit<{counter_bits}> {prefix}_min;",
        ],
        declarations=declarations,
        apply_calls=[
            f"meta.{prefix}_min = {(1 << counter_bits) - 1};",
            f"{prefix}_hash_inc.apply(meta);",
            f"{prefix}_find_min.apply(meta);",
        ],
        utility_term=f"{rows} * {cols}" if weight_in_utility else "",
    )


#: Standalone single-structure program (library source shipped as data).
CMS_SOURCE = """// Elastic count-min sketch (library module, standalone build).
symbolic int cms_rows;
symbolic int cms_cols;
assume cms_rows >= 1 && cms_rows <= 4;
assume cms_cols <= 65536;

struct metadata {
    bit<32> flow_id;
    bit<32>[cms_rows] cms_index;
    bit<32>[cms_rows] cms_count;
    bit<32> cms_min;
}

register<bit<32>>[cms_cols][cms_rows] cms_sketch;

action cms_incr()[int i] {
    meta.cms_index[i] = hash(i, meta.flow_id);
    cms_sketch[i].add_read(meta.cms_count[i], meta.cms_index[i], 1);
}

action cms_take_min()[int i] {
    meta.cms_min = meta.cms_count[i];
}

control cms_hash_inc(inout metadata meta) {
    apply {
        for (i < cms_rows) { cms_incr()[i]; }
    }
}

control cms_find_min(inout metadata meta) {
    apply {
        for (i < cms_rows) {
            if (meta.cms_count[i] < meta.cms_min) { cms_take_min()[i]; }
        }
    }
}

control Ingress(inout metadata meta) {
    apply {
        meta.cms_min = 4294967295;
        cms_hash_inc.apply(meta);
        cms_find_min.apply(meta);
    }
}

optimize cms_rows * cms_cols;
"""
