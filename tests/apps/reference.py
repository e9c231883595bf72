"""Per-packet runners of SketchLearn, ConQuest and PRECISION.

The tests' reference for three of the four Fig. 11 applications: each
runner compiles the application's elastic source (which stays in
:mod:`repro.apps`, as the compiler and Fig. 11 build it) and drives the
PISA simulator one packet at a time with the application's control
logic; :func:`simulate_precision` runs PRECISION's control loop over the
reference table instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.apps import PrecisionStats, conquest_source, sketchlearn_source
from repro.core import CompileOptions, CompiledProgram, compile_source
from repro.pisa import Packet, Pipeline, TargetSpec

from tests.structures.reference import CountingHashTable, HierarchicalSketch

__all__ = ["extract_large_flows", "SketchLearnApp", "ConQuestStats",
           "ConQuestApp", "simulate_precision"]


def extract_large_flows(
    sketch: HierarchicalSketch,
    candidate_keys,
    theta: float = 0.05,
    lo: float = 0.3,
    hi: float = 0.7,
) -> dict[int, int]:
    """SketchLearn-style extraction: flows whose slot share exceeds θ and
    whose identifier bits are unambiguous. Returns key → estimated count.

    ``candidate_keys`` seeds the slot scan (the full algorithm enumerates
    slots; scanning per-slot via known candidates tests the same
    data-structure property without re-deriving the EM machinery).
    """
    out: dict[int, int] = {}
    if sketch.packets == 0:
        return out
    for key in candidate_keys:
        key = int(key)
        idx0 = sketch._fns[0](key, width=sketch.cols)
        total = int(sketch.levels[0, idx0])
        if total < theta * sketch.packets:
            continue
        bits = sketch.infer_key_bits(key, lo=lo, hi=hi)
        if any(b is None for b in bits):
            continue
        inferred = sum(b << i for i, b in enumerate(bits))
        if inferred == key & ((1 << sketch.key_bits) - 1):
            out[key] = total
    return out


class SketchLearnApp:
    """Compiled SketchLearn on the PISA simulator."""

    def __init__(
        self,
        target: TargetSpec,
        key_bits: int = 8,
        options: CompileOptions | None = None,
    ):
        self.key_bits = key_bits
        self.source = sketchlearn_source(key_bits=key_bits)
        self.compiled: CompiledProgram = compile_source(
            self.source, target, options=options, source_name="sketchlearn"
        )
        self.pipeline = Pipeline(self.compiled)
        self.cols = self.compiled.symbol_values["sl_cols"]
        self.packets = 0

    def run_trace(self, keys) -> None:
        # Streaming mode: only the register state matters here, so skip
        # materializing a PipelineResult list for trace-scale inputs.
        self.packets += self.pipeline.process_many(
            (Packet(fields={"flow_id": int(key)}) for key in keys),
            collect=False,
        )

    def level_counts(self, level: int):
        """Control-plane read of one level's counters."""
        return self.pipeline.register_dump("sl_lvl", level)

    def as_reference(self) -> HierarchicalSketch:
        """Rebuild a reference sketch view from the pipeline's registers."""
        ref = HierarchicalSketch(self.key_bits, self.cols, seed_offset=300)
        for level in range(self.key_bits + 1):
            ref.levels[level] = self.level_counts(level)
        ref.packets = self.packets
        return ref

    def extract(self, candidate_keys, theta: float = 0.05) -> dict[int, int]:
        return extract_large_flows(self.as_reference(), candidate_keys, theta)


@dataclass
class ConQuestStats:
    packets: int = 0
    rotations: int = 0


class ConQuestApp:
    """Compiled ConQuest on the PISA simulator.

    The caller provides each packet's window id (``timestamp // window``);
    the harness clears a snapshot when the rotation re-enters it.
    """

    def __init__(
        self,
        target: TargetSpec,
        snapshots: int = 4,
        options: CompileOptions | None = None,
    ):
        self.snapshots = snapshots
        self.source = conquest_source(snapshots=snapshots)
        self.compiled: CompiledProgram = compile_source(
            self.source, target, options=options, source_name="conquest"
        )
        self.pipeline = Pipeline(self.compiled)
        self.cols = self.compiled.symbol_values["cq_cols"]
        self._last_window: int | None = None
        self.stats = ConQuestStats()

    def process(self, flow_id: int, window: int, amount: int = 1) -> int:
        """One packet; returns the flow's queue-occupancy estimate."""
        snap = window % self.snapshots
        if self._last_window is not None and window != self._last_window:
            # Entering a new window: clean the snapshot being reused.
            for w in range(self._last_window + 1, window + 1):
                self.pipeline.registers.get(
                    f"cq_snap[{w % self.snapshots}]"
                ).clear()
                self.stats.rotations += 1
        self._last_window = window
        result = self.pipeline.process(
            Packet(fields={"flow_id": int(flow_id), "window": snap,
                           "pkt_bytes": int(amount)})
        )
        self.stats.packets += 1
        return result.get("meta.cq_est")


def simulate_precision(
    rows: int,
    cols: int,
    keys,
    seed: int = 1,
) -> tuple[CountingHashTable, PrecisionStats]:
    """PRECISION control loop over the reference table (fast path)."""
    table = CountingHashTable(rows, cols, seed_offset=200)
    rng = random.Random(seed)
    stats = PrecisionStats()
    for key in keys:
        key = int(key)
        stats.packets += 1
        if table.increment(key):
            stats.tracked_hits += 1
            continue
        min_count = table.min_candidate_count(key)
        if rng.random() < 1.0 / (min_count + 1):
            stats.recirculations += 1
            table.replace_min(key, 1)
            stats.installs += 1
    return table, stats
