"""Figure 12 — structure sizes as per-stage memory grows.

The paper sweeps the target's per-stage memory M and shows both NetCache
structures stretching, with the key-value store taking the larger share
of memory (its items are far larger than the sketch's counters). Shape
to reproduce: monotone growth of both structures with M, and KVS memory
share > CMS memory share throughout.

Target parameters from §6.2: S = 10, F = 4, L = 100, P = 4096.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..apps.netcache import NETCACHE_UTILITY, netcache_source
from ..core import compile_source
from ..pisa.resources import tofino
from .tables import render_table

__all__ = ["ElasticityPoint", "ElasticitySweep", "run_memory_sweep"]

MEGABIT = 1 << 20


@dataclass
class ElasticityPoint:
    memory_bits_per_stage: int
    cms_rows: int
    cms_cols: int
    kv_rows: int
    kv_cols: int
    cms_bits: int
    kv_bits: int

    @property
    def kv_items(self) -> int:
        return self.kv_rows * self.kv_cols

    @property
    def cms_cells(self) -> int:
        return self.cms_rows * self.cms_cols


@dataclass
class ElasticitySweep:
    points: list[ElasticityPoint] = field(default_factory=list)

    def format(self) -> str:
        rows = [
            [
                f"{p.memory_bits_per_stage / MEGABIT:.2f}",
                f"{p.cms_rows}x{p.cms_cols}",
                p.cms_cells,
                f"{p.kv_rows}x{p.kv_cols}",
                p.kv_items,
                f"{p.kv_bits / max(p.kv_bits + p.cms_bits, 1):.2f}",
            ]
            for p in self.points
        ]
        return render_table(
            ["M (Mb/stage)", "CMS shape", "CMS cells", "KVS shape",
             "KVS items", "KVS mem share"],
            rows,
            title="Figure 12 — NetCache structure sizes as memory grows",
        )


def _compile_point(source: str, mbit: float) -> ElasticityPoint:
    """Compile one memory cut. Module-level (and closure-free) so it can
    cross a process boundary: HiGHS holds the GIL while solving, so the
    parallel sweep needs processes, not threads."""
    bits = int(mbit * MEGABIT)
    target = dataclasses.replace(tofino(), memory_bits_per_stage=bits)
    compiled = compile_source(source, target, source_name="netcache")
    syms = compiled.symbol_values
    cms_bits = sum(
        r.size_bits for r in compiled.registers if r.family == "cms_sketch"
    )
    kv_bits = sum(
        r.size_bits for r in compiled.registers if r.family.startswith("kv_")
    )
    return ElasticityPoint(
        memory_bits_per_stage=bits,
        cms_rows=syms.get("cms_rows", 0),
        cms_cols=syms.get("cms_cols", 0),
        kv_rows=syms.get("kv_rows", 0),
        kv_cols=syms.get("kv_cols", 0),
        cms_bits=cms_bits,
        kv_bits=kv_bits,
    )


def run_memory_sweep(
    memory_options_mbit: tuple[float, ...] = (0.25, 0.5, 1.0, 1.75, 2.5, 4.0),
    utility: str = NETCACHE_UTILITY,
    max_cms_cols: int = 16384,
    kv_min_total_bits: int | None = None,
    workers: int | None = None,
) -> ElasticitySweep:
    """Compile NetCache at several per-stage memory sizes.

    The per-memory-cut compiles are independent, so they fan out across
    a **process** pool (HiGHS does not release the GIL, so threads
    cannot overlap the solves). ``workers`` defaults to one per cut,
    capped at the CPU count; pass ``1`` to force the sequential path,
    which is also the automatic fallback where multiprocessing is
    unavailable."""
    import os
    from concurrent.futures import ProcessPoolExecutor

    sweep = ElasticitySweep()
    source = netcache_source(utility=utility, kv_min_total_bits=kv_min_total_bits)
    source = source.replace(
        "assume cms_cols <= 65536;", f"assume cms_cols <= {max_cms_cols};"
    )

    if workers is None:
        workers = min(len(memory_options_mbit), os.cpu_count() or 1)
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # map() preserves input order: points stay sorted by M.
                sweep.points = list(pool.map(
                    _compile_point,
                    [source] * len(memory_options_mbit),
                    memory_options_mbit,
                ))
            return sweep
        except OSError:  # no process spawning (sandboxes, some CI)
            pass
    sweep.points = [_compile_point(source, m) for m in memory_options_mbit]
    return sweep
