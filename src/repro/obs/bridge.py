"""Bridge the runtime :class:`~repro.runtime.telemetry.TelemetryBus`
into the tracer's span tree.

The telemetry bus predates the tracing layer and remains the runtime's
source of structured control-plane events (tests and the run report
consume it directly). This bridge subscribes to a bus and mirrors every
event into the active span as a ``telemetry.<kind>`` instant event —
so a ``swap_committed`` lands *inside* the ``fleet.reconfigure`` span
that produced it on the exported timeline, instead of living in a
parallel universe — and counts events per kind on the metrics registry.

Bridging is idempotent per (bus, tracer) pair and costs one callback
per telemetry event (control-plane frequency, never per packet). With
the tracer disabled the mirror is a cheap enabled-check; the event
counter stays on.
"""

from __future__ import annotations

from .metrics import MetricsRegistry
from .tracer import Tracer

__all__ = ["bridge_telemetry", "bridge_fleet_report"]


def bridge_telemetry(bus, tracer: Tracer | None = None,
                     registry: MetricsRegistry | None = None):
    """Subscribe a mirror of ``bus`` onto ``tracer`` (default: the
    global tracer/registry). Returns ``bus``; safe to call twice."""
    from . import metrics as default_registry
    from . import trace as default_tracer

    tracer = tracer if tracer is not None else default_tracer
    registry = registry if registry is not None else default_registry
    bridged = getattr(bus, "_obs_bridged", None)
    if bridged is None:
        bridged = set()
        bus._obs_bridged = bridged
    key = (id(tracer), id(registry))
    if key in bridged:
        return bus
    counter = registry.counter(
        "p4all_telemetry_events_total",
        help="Telemetry bus events mirrored into the span tree, by kind.",
        labels=("kind",),
    )

    from . import flight

    def _mirror(event) -> None:
        counter.inc(kind=event.kind)
        # Control-plane events always land in the flight recorder ring
        # — that is the record a post-crash dump is for.
        flight.note("telemetry", event.kind, **event.data)
        if tracer.enabled:
            tracer.event("telemetry." + event.kind, **event.to_dict())

    bus.subscribe(_mirror)
    bridged.add(key)
    return bus


def bridge_fleet_report(report, tracer: Tracer | None = None) -> None:
    """Mirror a :class:`~repro.fabric.controller.FleetReport` into the
    active span tree, the way runtime telemetry already lands there.

    Emits one ``fleet.report`` instant with the fleet-level summary and
    one ``fleet.reconfig`` instant per per-switch reconfiguration
    record, all inside whatever span is open (the fleet controller
    calls this while its ``fleet.run`` span is still live). The
    summary goes to the flight recorder unconditionally.
    """
    from . import flight
    from . import trace as default_tracer

    tracer = tracer if tracer is not None else default_tracer
    summary = {
        "packets": report.packets,
        "hits": report.hits,
        "hit_rate": report.hit_rate,
        "switches": len(report.per_switch),
        "reconfigs": len(report.reconfigs),
        "migrations": len(report.migrations),
    }
    flight.note("fleet", "fleet_report", **summary)
    if tracer.enabled:
        tracer.event("fleet.report", **summary)
        for switch, record in report.reconfigs:
            tracer.event("fleet.reconfig", switch=switch, **record.to_dict())
