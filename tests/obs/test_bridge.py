"""The one event path: ``TelemetryBus.emit`` lands each event in the
active span, the per-kind counter and the flight ring."""

from repro import obs
from repro.runtime import TelemetryBus


def _events_total(kind: str) -> float:
    counter = obs.metrics.get("p4all_telemetry_events_total")
    return counter.value(kind=kind) if counter is not None else 0.0


class TestBridge:
    def test_events_mirror_into_active_span(self):
        obs.trace.enable()
        bus = TelemetryBus()
        with obs.trace.span("runtime.reconfigure") as span:
            bus.emit("swap_committed", packet_index=7, backend="ilp")
        [ev] = span.events
        assert ev.name == "telemetry.swap_committed"
        assert ev.attrs["kind"] == "swap_committed"
        assert ev.attrs["packet_index"] == 7
        assert ev.attrs["backend"] == "ilp"

    def test_events_outside_spans_become_orphans(self):
        obs.trace.enable()
        TelemetryBus().emit("configured")
        [ev] = obs.trace.orphan_events
        assert ev.name == "telemetry.configured"

    def test_counter_counts_even_with_tracer_disabled(self):
        bus = TelemetryBus()
        windows, rollbacks = _events_total("window"), _events_total("rollback")
        bus.emit("window")
        bus.emit("window")
        bus.emit("rollback")
        assert _events_total("window") == windows + 2
        assert _events_total("rollback") == rollbacks + 1
        assert len(obs.trace) == 0

    def test_one_emit_is_one_instant_and_one_count(self):
        obs.trace.enable()
        before = _events_total("tick")
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        with obs.trace.span("s") as span:
            bus.emit("tick")
        assert len(span.events) == 1 and len(seen) == 1
        assert _events_total("tick") == before + 1

    def test_payload_keys_colliding_with_core_fields_rekeyed(self):
        # TelemetryEvent.to_dict re-keys payload fields that shadow its
        # own core fields as data_<key>; the instant must keep both
        # without silently dropping either.
        obs.trace.enable()
        bus = TelemetryBus()
        with obs.trace.span("s") as span:
            bus.emit("window", seq=99, wall_time=1.5)
        [ev] = span.events
        assert ev.attrs["data_seq"] == 99
        assert ev.attrs["data_wall_time"] == 1.5
        assert ev.attrs["seq"] == 0           # the event's own sequence
        assert ev.attrs["kind"] == "window"

    def test_events_land_in_flight_ring(self):
        bus = TelemetryBus()
        obs.flight.clear()      # a full ring would not grow by one
        bus.emit("swap_committed", packet_index=7, backend="ilp")
        [entry] = obs.flight.entries()
        assert entry["kind"] == "telemetry"
        assert entry["name"] == "swap_committed"
        assert entry["data"]["backend"] == "ilp"
