"""Mirror a fleet run's outcome into the tracer's span tree.

Runtime telemetry reaches the trace by itself — ``TelemetryBus.emit``
lands every event in the active span. :func:`bridge_fleet_report` does
the same for the closing :class:`~repro.fabric.controller.FleetReport`,
which is a return value rather than an event.
"""

from __future__ import annotations

from .tracer import Tracer

__all__ = ["bridge_fleet_report"]


def bridge_fleet_report(report, tracer: Tracer | None = None) -> None:
    """Mirror a :class:`~repro.fabric.controller.FleetReport` into the
    active span tree, the way runtime telemetry lands there.

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
