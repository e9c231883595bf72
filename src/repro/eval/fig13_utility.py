"""Figure 13 — the utility function decides the split.

At M = 1.75 Mb per stage, the paper compares two utilities — one
weighted toward the sketch, one toward the key-value store — with an
assume guaranteeing at least 8 Mb for the store. Shape to reproduce:
flipping the weights flips which structure receives more memory, and
both configurations use (nearly) all available resources.

Normalization note (documented in EXPERIMENTS.md): the paper writes the
weights over item *counts* (``rows*cols`` and ``kv_items``). Under our
cost model a CMS counter (32 b) is so much cheaper than a KV item
(160 b) that the count-weighted flip never changes the per-bit ranking
— both weightings fill the sketch to its caps first. We therefore weight
item counts scaled by their item sizes (equivalently: weight *memory
bits*), which is the same programmer knob ("rewrite the utility to shift
resources", §3.2.4) expressed in units where the flip is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apps.netcache import netcache_source
from ..core import compile_source
from ..pisa.resources import tofino
from .fig07_layout import NETCACHE_KV_FLOOR_BITS
from .tables import render_table

__all__ = [
    "UtilityOutcome",
    "UtilityComparison",
    "run_utility_comparison",
    "UTILITY_KV_WEIGHTED",
    "UTILITY_CMS_WEIGHTED",
]

#: Per-bit weighting toward the key-value store (the paper's second case).
UTILITY_KV_WEIGHTED = (
    "0.4 * (cms_rows * cms_cols * 32) + 0.6 * (kv_rows * kv_cols * 160)"
)
#: Per-bit weighting toward the count-min sketch (the paper's first case).
UTILITY_CMS_WEIGHTED = (
    "0.6 * (cms_rows * cms_cols * 32) + 0.4 * (kv_rows * kv_cols * 160)"
)


@dataclass
class UtilityOutcome:
    label: str
    utility: str
    cms_rows: int
    cms_cols: int
    kv_rows: int
    kv_cols: int
    cms_bits: int
    kv_bits: int
    total_capacity_bits: int

    @property
    def kv_items(self) -> int:
        return self.kv_rows * self.kv_cols

    @property
    def cms_cells(self) -> int:
        return self.cms_rows * self.cms_cols

    @property
    def memory_utilization(self) -> float:
        return (self.cms_bits + self.kv_bits) / self.total_capacity_bits


@dataclass
class UtilityComparison:
    outcomes: list[UtilityOutcome] = field(default_factory=list)

    def format(self) -> str:
        rows = [
            [
                o.label,
                f"{o.cms_rows}x{o.cms_cols}",
                o.cms_bits,
                f"{o.kv_rows}x{o.kv_cols}",
                o.kv_bits,
                f"{o.memory_utilization:.1%}",
            ]
            for o in self.outcomes
        ]
        return render_table(
            ["utility", "CMS shape", "CMS bits", "KVS shape", "KVS bits",
             "mem util"],
            rows,
            title="Figure 13 — utility choice decides the resource split "
                  "(M = 1.75 Mb/stage, KVS floor 8 Mb)",
        )


def run_utility_comparison(
    kv_min_total_bits: int = NETCACHE_KV_FLOOR_BITS,
    max_cms_cols: int = 16384,
) -> UtilityComparison:
    """Compile NetCache under both Figure-13 utilities."""
    target = tofino()  # M = 1.75 Mb/stage by default
    comparison = UtilityComparison()
    for label, utility in (
        ("0.6*CMS + 0.4*KVS", UTILITY_CMS_WEIGHTED),
        ("0.4*CMS + 0.6*KVS", UTILITY_KV_WEIGHTED),
    ):
        source = netcache_source(
            utility=utility, kv_min_total_bits=kv_min_total_bits
        ).replace("assume cms_cols <= 65536;", f"assume cms_cols <= {max_cms_cols};")
        compiled = compile_source(source, target, source_name="netcache")
        syms = compiled.symbol_values
        cms_bits = sum(
            r.size_bits for r in compiled.registers if r.family == "cms_sketch"
        )
        kv_bits = sum(
            r.size_bits for r in compiled.registers if r.family.startswith("kv_")
        )
        comparison.outcomes.append(
            UtilityOutcome(
                label=label,
                utility=utility,
                cms_rows=syms.get("cms_rows", 0),
                cms_cols=syms.get("cms_cols", 0),
                kv_rows=syms.get("kv_rows", 0),
                kv_cols=syms.get("kv_cols", 0),
                cms_bits=cms_bits,
                kv_bits=kv_bits,
                total_capacity_bits=target.total_memory_bits,
            )
        )
    return comparison
