"""Packet representation for the pipeline simulator.

A :class:`Packet` is a bag of named header fields (``"ipv4.src"``,
``"flow_id"``, ...) with unsigned integer values, plus bookkeeping the
applications use (arrival time, byte length, an opaque payload tag).
Parsing — in real PISA, the programmable parser populating the PHV — is
modeled by :class:`repro.pisa.pipeline.Parser`, which copies a declared
subset of these fields into PHV slots.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

__all__ = ["Packet"]

_packet_ids = itertools.count()


@dataclass
class Packet:
    """One packet entering the switch.

    ``fields`` maps header-field names to unsigned integers. ``length``
    is the wire length in bytes (used by byte-counting applications),
    ``timestamp`` an arbitrary monotonic arrival time.
    """

    fields: dict[str, int] = dc_field(default_factory=dict)
    length: int = 64
    timestamp: float = 0.0
    packet_id: int = dc_field(default_factory=lambda: next(_packet_ids))

    def field(self, name: str, default: int | None = None) -> int:
        """Read a header field; raises ``KeyError`` unless a default is given."""
        if default is None:
            return self.fields[name]
        return self.fields.get(name, default)

    def with_fields(self, **updates: int) -> "Packet":
        """Copy of this packet with some fields replaced."""
        merged = dict(self.fields)
        merged.update(updates)
        return Packet(fields=merged, length=self.length, timestamp=self.timestamp)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"Packet#{self.packet_id}({inner})"
