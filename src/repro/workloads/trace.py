"""Synthetic flow-level packet traces.

Heavy-tailed flow-size traces in the style of backbone captures: flow
sizes follow a bounded Pareto, packets of concurrent flows interleave,
and each packet carries flow id, byte length, and timestamp. These feed
the monitoring applications (PRECISION, ConQuest, SketchLearn), whose
behavior depends on the tail shape rather than on exact capture replay —
see DESIGN.md §2 for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..pisa.packet import Packet

__all__ = ["FlowTrace", "synthesize_trace"]


@dataclass
class FlowTrace:
    """A packet trace with ground truth."""

    flow_ids: np.ndarray          # per-packet flow id
    lengths: np.ndarray           # per-packet bytes
    timestamps: np.ndarray        # per-packet arrival time (seconds)
    flow_sizes: dict[int, int] = field(default_factory=dict)  # ground truth

    def __len__(self) -> int:
        return len(self.flow_ids)

    def packets(self):
        """Iterate as :class:`~repro.pisa.packet.Packet` objects."""
        for fid, length, ts in zip(self.flow_ids, self.lengths, self.timestamps):
            yield Packet(
                fields={"flow_id": int(fid)},
                length=int(length),
                timestamp=float(ts),
            )

    def heavy_flows(self, threshold: int) -> set[int]:
        """Ground-truth flows with at least ``threshold`` packets."""
        return {f for f, c in self.flow_sizes.items() if c >= threshold}


def synthesize_trace(
    flows: int = 1_000,
    mean_packets_per_flow: float = 20.0,
    pareto_shape: float = 1.3,
    max_flow_packets: int = 50_000,
    mean_packet_bytes: int = 700,
    duration: float = 1.0,
    seed: int = 7,
) -> FlowTrace:
    """Generate an interleaved heavy-tail trace.

    Flow sizes are bounded-Pareto (shape ``pareto_shape``, scaled to the
    requested mean); packets are shuffled across the duration so flows
    interleave like a real capture.
    """
    rng = np.random.default_rng(seed)
    raw = rng.pareto(pareto_shape, flows) + 1.0
    sizes = np.clip(
        np.round(raw * mean_packets_per_flow / raw.mean()).astype(np.int64),
        1,
        max_flow_packets,
    )
    flow_ids = np.repeat(np.arange(1, flows + 1, dtype=np.int64), sizes)
    order = rng.permutation(len(flow_ids))
    flow_ids = flow_ids[order]
    lengths = np.clip(
        rng.exponential(mean_packet_bytes, len(flow_ids)).astype(np.int64),
        64,
        1500,
    )
    timestamps = np.sort(rng.random(len(flow_ids))) * duration
    sizes_map = {int(f + 1): int(s) for f, s in enumerate(sizes)}
    return FlowTrace(
        flow_ids=flow_ids,
        lengths=lengths,
        timestamps=timestamps,
        flow_sizes=sizes_map,
    )
