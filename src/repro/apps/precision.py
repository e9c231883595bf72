"""PRECISION: heavy-hitter detection with probabilistic recirculation.

PRECISION (Figure 1/11) tracks heavy flows in a multi-row key/counter
table. A packet whose flow is tracked increments its counter in the data
plane; a missed packet is *recirculated* with probability
``1 / (min_count + 1)`` to claim the entry with the smallest counter
among its candidate slots. The data plane is the elastic counting
hash-table module; the harness implements the recirculation policy using
exactly the signals the pipeline exports (``ht_matched``, ``ht_mincnt``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core import CompileOptions, CompiledProgram, compile_source
from ..pisa import Packet, Pipeline, TargetSpec
from ..structures import compose, hashtable_module

__all__ = ["precision_source", "PrecisionApp", "PrecisionStats"]


def precision_source(max_rows: int | None = None, max_cols: int = 65536) -> str:
    """Compose the elastic PRECISION program from the hash-table module."""
    ht = hashtable_module(
        prefix="ht", key_field="meta.flow_id", max_rows=max_rows,
        max_cols=max_cols, seed_offset=200,
    )
    return compose(
        modules=[ht],
        extra_metadata=["bit<32> flow_id;"],
        utility=ht.utility_term,
    )


@dataclass
class PrecisionStats:
    packets: int = 0
    tracked_hits: int = 0
    recirculations: int = 0
    installs: int = 0

    @property
    def recirculation_rate(self) -> float:
        return self.recirculations / self.packets if self.packets else 0.0


class PrecisionApp:
    """Compiled PRECISION on the PISA simulator."""

    def __init__(
        self,
        target: TargetSpec,
        options: CompileOptions | None = None,
        seed: int = 1,
    ):
        self.source = precision_source()
        self.compiled: CompiledProgram = compile_source(
            self.source, target, options=options, source_name="precision"
        )
        self.pipeline = Pipeline(self.compiled)
        self.rows = self.compiled.symbol_values["ht_rows"]
        self.cols = self.compiled.symbol_values["ht_cols"]
        self._rng = random.Random(seed)

    def _install_replace_min(self, key: int) -> None:
        """Recirculated packet: claim the smallest-count candidate slot."""
        best = None
        for row in range(self.rows):
            idx = self.pipeline.hash_value(200 + row, key, width=1 << 32)
            count = int(self.pipeline.registers.get(f"ht_counts[{row}]").read(idx))
            if best is None or count < best[2]:
                best = (row, idx, count)
        row, idx, _count = best
        self.pipeline.registers.get(f"ht_keys[{row}]").write(idx, key)
        self.pipeline.registers.get(f"ht_counts[{row}]").write(idx, 1)

    def run_trace(self, keys) -> PrecisionStats:
        stats = PrecisionStats()
        for key in keys:
            key = int(key)
            result = self.pipeline.process(Packet(fields={"flow_id": key}))
            stats.packets += 1
            if result.get("meta.ht_matched"):
                stats.tracked_hits += 1
                continue
            min_count = result.get("meta.ht_mincnt")
            if self._rng.random() < 1.0 / (min_count + 1):
                stats.recirculations += 1
                self._install_replace_min(key)
                stats.installs += 1
        return stats

    def heavy_keys(self, threshold: int) -> set[int]:
        """Control-plane scan for flows above ``threshold``."""
        out: set[int] = set()
        for row in range(self.rows):
            keys = self.pipeline.register_dump("ht_keys", row)
            counts = self.pipeline.register_dump("ht_counts", row)
            for key, count in zip(keys, counts):
                if int(key) != 0 and int(count) >= threshold:
                    out.add(int(key))
        return out

    def count_of(self, key: int) -> int:
        for row in range(self.rows):
            idx = self.pipeline.hash_value(200 + row, key, width=1 << 32)
            stored = int(self.pipeline.registers.get(f"ht_keys[{row}]").read(idx))
            if stored == key:
                return int(self.pipeline.registers.get(f"ht_counts[{row}]").read(idx))
        return 0
