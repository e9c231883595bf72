"""Figure 7 — the optimal NetCache layout.

The paper: with utility ``0.4*(rows*cols) + 0.6*(kv_items)`` on a
ten-stage target, "the CMS will have two rows in the first stage, while
the NetCache key-value store fills the following nine stages". The shape
to reproduce: the sketch is small and placed early, the key-value store
takes the bulk of the stages/memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.netcache import NETCACHE_UTILITY, netcache_source
from ..core import CompiledProgram, compile_source, layout_report
from ..pisa.resources import tofino

__all__ = ["LayoutFacts", "run_layout", "NETCACHE_KV_FLOOR_BITS"]

#: NetCache's recommended ≥ 8 Mb for the key-value store (§6.2).
NETCACHE_KV_FLOOR_BITS = 8 * (1 << 20)


@dataclass
class LayoutFacts:
    """Shape facts extracted from the compiled layout."""

    compiled: CompiledProgram
    cms_rows: int
    cms_cols: int
    kv_rows: int
    kv_cols: int
    cms_stages: list[int]
    kv_stages: list[int]
    cms_bits: int
    kv_bits: int

    @property
    def kv_items(self) -> int:
        return self.kv_rows * self.kv_cols

    @property
    def kv_memory_share(self) -> float:
        total = self.cms_bits + self.kv_bits
        return self.kv_bits / total if total else 0.0

    def format(self) -> str:
        return (
            "Figure 7 — NetCache layout\n"
            f"{layout_report(self.compiled)}\n"
            f"CMS:  {self.cms_rows} rows x {self.cms_cols} cols "
            f"in stages {self.cms_stages} ({self.cms_bits} bits)\n"
            f"KVS:  {self.kv_rows} rows x {self.kv_cols} cols "
            f"({self.kv_items} items) in stages {self.kv_stages} "
            f"({self.kv_bits} bits, {self.kv_memory_share:.1%} of structure memory)"
        )


def run_layout(
    utility: str = NETCACHE_UTILITY,
    kv_min_total_bits: int | None = NETCACHE_KV_FLOOR_BITS,
    max_cms_cols: int = 16384,
    target=None,
) -> LayoutFacts:
    """Compile NetCache and extract the Figure-7 facts.

    ``max_cms_cols`` caps the sketch's columns (diminishing returns: the
    CMS error is already ≈ e/16384 of traffic at that width) — the §5
    practice of constraining register memory with assumes.
    """
    target = target or tofino()
    source = netcache_source(
        utility=utility,
        kv_min_total_bits=kv_min_total_bits,
        max_cols=65536,
    ).replace("assume cms_cols <= 65536;", f"assume cms_cols <= {max_cms_cols};")
    compiled = compile_source(source, target, source_name="netcache")
    syms = compiled.symbol_values
    cms_stages = sorted({
        r.stage for r in compiled.registers if r.family == "cms_sketch"
    })
    kv_stages = sorted({
        r.stage for r in compiled.registers if r.family.startswith("kv_")
    })
    cms_bits = sum(
        r.size_bits for r in compiled.registers if r.family == "cms_sketch"
    )
    kv_bits = sum(
        r.size_bits for r in compiled.registers if r.family.startswith("kv_")
    )
    return LayoutFacts(
        compiled=compiled,
        cms_rows=syms.get("cms_rows", 0),
        cms_cols=syms.get("cms_cols", 0),
        kv_rows=syms.get("kv_rows", 0),
        kv_cols=syms.get("kv_cols", 0),
        cms_stages=cms_stages,
        kv_stages=kv_stages,
        cms_bits=cms_bits,
        kv_bits=kv_bits,
    )
