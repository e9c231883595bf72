"""Structured telemetry for the elastic runtime.

Every control-plane decision — reconfiguration triggers, compile
attempts and fallbacks, migration outcomes, hot swaps, rollbacks — is
emitted as a :class:`TelemetryEvent` on a :class:`TelemetryBus`. Events
are plain data (JSON-serializable dicts), so the same stream feeds the
in-memory assertions the tests make, the ``p4all run`` report, the
runtime eval experiment, and an optional JSON-lines sink on disk.

:meth:`TelemetryBus.emit` is also the one path from an event to the
observability layer: it counts ``p4all_telemetry_events_total{kind}``,
notes the event in the flight ring, and — when tracing is on — lands it
in the active span as a ``telemetry.<kind>`` instant.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, TextIO

from ..obs import flight, metrics, trace

__all__ = ["TelemetryEvent", "TelemetryBus"]

#: Core field names of :meth:`TelemetryEvent.to_dict`; colliding keys in
#: ``data`` are re-keyed ``data_<key>`` rather than silently shadowing.
_CORE_FIELDS = ("seq", "kind", "packet_index", "wall_time", "perf_time")


@dataclass
class TelemetryEvent:
    """One structured runtime event.

    ``kind`` is a stable identifier (``reconfig_triggered``,
    ``compile_attempt``, ``ilp_fallback``, ``migration``,
    ``swap_committed``, ``rollback``, ``window``, ...); ``packet_index``
    is the position in the packet stream when the event fired (``None``
    for events outside a run); ``data`` carries kind-specific fields.
    ``wall_time`` is ``time.time()`` at emission (for correlating with
    the outside world) and ``perf_time`` is ``time.perf_counter()``
    (monotonic — safe for computing intervals between events even
    across a wall-clock adjustment).
    """

    seq: int
    kind: str
    packet_index: int | None = None
    wall_time: float = 0.0
    perf_time: float = 0.0
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "seq": self.seq,
            "kind": self.kind,
            "packet_index": self.packet_index,
            "wall_time": self.wall_time,
            "perf_time": self.perf_time,
        }
        for key, value in self.data.items():
            out[f"data_{key}" if key in _CORE_FIELDS else key] = value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, default=str)


class TelemetryBus:
    """Collects runtime events; optionally streams them to a JSONL file.

    ``subscribe`` registers a callback invoked synchronously on every
    event (the eval harness uses this to narrate progress); subscriber
    exceptions propagate — the bus is for observability, not isolation.

    The sink file is opened lazily on the first emit and the handle is
    held (appending) until :meth:`close` — the bus is usable as a
    context manager. Each event is flushed as written, so a crashed run
    still leaves a complete stream behind.
    """

    def __init__(self, sink: str | Path | None = None):
        self.events: list[TelemetryEvent] = []
        self._subscribers: list[Callable[[TelemetryEvent], None]] = []
        self._sink_path = Path(sink) if sink is not None else None
        self._sink_fh: TextIO | None = None
        self._seq = 0

    def subscribe(self, callback: Callable[[TelemetryEvent], None]) -> None:
        self._subscribers.append(callback)

    def emit(self, kind: str, packet_index: int | None = None,
             **data: Any) -> TelemetryEvent:
        event = TelemetryEvent(
            seq=self._seq,
            kind=kind,
            packet_index=packet_index,
            wall_time=time.time(),
            perf_time=time.perf_counter(),
            data=data,
        )
        self._seq += 1
        self.events.append(event)
        metrics.counter(
            "p4all_telemetry_events_total",
            help="Telemetry bus events, by kind.",
            labels=("kind",),
        ).inc(kind=kind)
        # Control-plane events always land in the flight ring — that is
        # the record a post-crash dump is for.
        flight.note("telemetry", kind, **data)
        if trace.enabled:
            trace.event("telemetry." + kind, **event.to_dict())
        if self._sink_path is not None:
            if self._sink_fh is None:
                self._sink_fh = self._sink_path.open("a")
            self._sink_fh.write(event.to_json() + "\n")
            self._sink_fh.flush()
        for callback in self._subscribers:
            callback(event)
        return event

    def close(self) -> None:
        """Close the sink file handle, if one was opened. Safe to call
        repeatedly; a later emit reopens the sink (still appending)."""
        if self._sink_fh is not None:
            self._sink_fh.close()
            self._sink_fh = None

    def __enter__(self) -> "TelemetryBus":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- queries ---------------------------------------------------------------
    def events_of(self, kind: str) -> list[TelemetryEvent]:
        return [e for e in self.events if e.kind == kind]

    def last_of(self, kind: str) -> TelemetryEvent | None:
        for event in reversed(self.events):
            if event.kind == kind:
                return event
        return None

    def __len__(self) -> int:
        return len(self.events)
