"""Telemetry-bus → tracer bridge tests."""

from repro.obs import MetricsRegistry, Tracer, bridge_telemetry
from repro.runtime import TelemetryBus


class TestBridge:
    def test_events_mirror_into_active_span(self):
        tracer = Tracer(enabled=True)
        registry = MetricsRegistry()
        bus = bridge_telemetry(TelemetryBus(), tracer, registry)
        with tracer.span("runtime.reconfigure") as span:
            bus.emit("swap_committed", packet_index=7, backend="ilp")
        [ev] = span.events
        assert ev.name == "telemetry.swap_committed"
        assert ev.attrs["kind"] == "swap_committed"
        assert ev.attrs["packet_index"] == 7
        assert ev.attrs["backend"] == "ilp"

    def test_events_outside_spans_become_orphans(self):
        tracer = Tracer(enabled=True)
        bus = bridge_telemetry(TelemetryBus(), tracer, MetricsRegistry())
        bus.emit("configured")
        [ev] = tracer.orphan_events
        assert ev.name == "telemetry.configured"

    def test_counter_counts_even_with_tracer_disabled(self):
        tracer = Tracer(enabled=False)
        registry = MetricsRegistry()
        bus = bridge_telemetry(TelemetryBus(), tracer, registry)
        bus.emit("window")
        bus.emit("window")
        bus.emit("rollback")
        counter = registry.get("p4all_telemetry_events_total")
        assert counter.value(kind="window") == 2
        assert counter.value(kind="rollback") == 1
        assert len(tracer) == 0

    def test_bridging_is_idempotent_per_pair(self):
        tracer = Tracer(enabled=True)
        registry = MetricsRegistry()
        bus = TelemetryBus()
        bridge_telemetry(bus, tracer, registry)
        bridge_telemetry(bus, tracer, registry)  # no double subscription
        with tracer.span("s") as span:
            bus.emit("tick")
        assert len(span.events) == 1
        assert registry.get(
            "p4all_telemetry_events_total"
        ).value(kind="tick") == 1

    def test_distinct_tracers_both_receive(self):
        bus = TelemetryBus()
        t1, t2 = Tracer(enabled=True), Tracer(enabled=True)
        r = MetricsRegistry()
        bridge_telemetry(bus, t1, r)
        bridge_telemetry(bus, t2, r)
        with t1.span("a"), t2.span("b"):
            bus.emit("tick")
        # Each tracer recorded the event on its own active span.
        assert len(t1.spans_named("a")[0].events) == 1
        assert len(t2.spans_named("b")[0].events) == 1
        assert r.get("p4all_telemetry_events_total").value(kind="tick") == 2

    def test_returns_bus(self):
        bus = TelemetryBus()
        assert bridge_telemetry(bus, Tracer(enabled=False),
                                MetricsRegistry()) is bus

    def test_payload_keys_colliding_with_core_fields_rekeyed(self):
        # TelemetryEvent.to_dict re-keys payload fields that shadow its
        # own core fields as data_<key>; the mirrored instant must keep
        # both without silently dropping either.
        tracer = Tracer(enabled=True)
        bus = bridge_telemetry(TelemetryBus(), tracer, MetricsRegistry())
        with tracer.span("s") as span:
            bus.emit("window", seq=99, wall_time=1.5)
        [ev] = span.events
        assert ev.attrs["data_seq"] == 99
        assert ev.attrs["data_wall_time"] == 1.5
        assert ev.attrs["seq"] == 0           # the event's own sequence
        assert ev.attrs["kind"] == "window"

    def test_events_land_in_flight_ring(self):
        from repro import obs

        bus = bridge_telemetry(TelemetryBus(), Tracer(enabled=False),
                               MetricsRegistry())
        obs.flight.clear()      # a full ring would not grow by one
        before = len(obs.flight)
        bus.emit("swap_committed", packet_index=7, backend="ilp")
        entries = obs.flight.entries()
        assert len(obs.flight) == before + 1
        assert entries[-1]["kind"] == "telemetry"
        assert entries[-1]["name"] == "swap_committed"
        assert entries[-1]["data"]["backend"] == "ilp"
