"""Telemetry bus tests."""

import json

from repro.runtime import TelemetryBus


class TestTelemetryBus:
    def test_emit_and_query(self):
        bus = TelemetryBus()
        bus.emit("window", packet_index=100, hit_rate=0.5)
        bus.emit("rollback", packet_index=200, error="boom")
        bus.emit("window", packet_index=300, hit_rate=0.6)
        assert len(bus) == 3
        assert [e.kind for e in bus.events] == ["window", "rollback", "window"]
        assert len(bus.events_of("window")) == 2
        assert bus.last_of("window").data["hit_rate"] == 0.6
        assert bus.last_of("missing") is None

    def test_sequence_is_monotone(self):
        bus = TelemetryBus()
        for _ in range(5):
            bus.emit("tick")
        assert [e.seq for e in bus.events] == list(range(5))

    def test_events_are_json_serializable(self):
        bus = TelemetryBus()
        event = bus.emit("migration", packet_index=1, kv_migrated=3,
                         notes=["a", "b"])
        decoded = json.loads(event.to_json())
        assert decoded["kind"] == "migration"
        assert decoded["kv_migrated"] == 3
        assert decoded["packet_index"] == 1

    def test_subscriber_sees_every_event(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(lambda e: seen.append(e.kind))
        bus.emit("a")
        bus.emit("b")
        assert seen == ["a", "b"]

    def test_jsonl_sink_streams(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = TelemetryBus(sink=path)
        bus.emit("a", x=1)
        bus.emit("b", y=2)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["kind"] == "b"

    def test_sink_handle_is_held_open(self, tmp_path):
        # The sink is opened once (lazily) and reused — not reopened per
        # emit. Every event is flushed, so readers see it immediately.
        path = tmp_path / "events.jsonl"
        bus = TelemetryBus(sink=path)
        bus.emit("a")
        fh = bus._sink_fh
        assert fh is not None and not fh.closed
        bus.emit("b")
        assert bus._sink_fh is fh
        assert len(path.read_text().strip().splitlines()) == 2

    def test_close_and_reopen_appends(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = TelemetryBus(sink=path)
        bus.emit("a")
        bus.close()
        assert bus._sink_fh is None
        bus.close()  # idempotent
        bus.emit("b")  # reopens, still appending
        bus.close()
        kinds = [json.loads(l)["kind"]
                 for l in path.read_text().strip().splitlines()]
        assert kinds == ["a", "b"]

    def test_context_manager_closes_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with TelemetryBus(sink=path) as bus:
            bus.emit("a")
            fh = bus._sink_fh
        assert fh.closed and bus._sink_fh is None

    def test_no_sink_close_is_noop(self):
        bus = TelemetryBus()
        bus.emit("a")
        bus.close()  # nothing to close; must not raise

    def test_core_fields_survive_data_collisions(self):
        # Regression: `**data` used to spread last in to_dict(), letting
        # a payload key silently shadow seq/kind/packet_index/wall_time.
        bus = TelemetryBus()
        event = bus.emit("window", packet_index=7,
                         seq=999, wall_time=-1.0, hit_rate=0.5)
        # ``kind`` can't collide through emit() (it's the positional
        # parameter), so exercise that path on the dataclass directly.
        from repro.runtime.telemetry import TelemetryEvent

        direct = TelemetryEvent(seq=1, kind="window",
                                data={"kind": "fake"})
        assert direct.to_dict()["kind"] == "window"
        assert direct.to_dict()["data_kind"] == "fake"
        d = event.to_dict()
        assert d["kind"] == "window"
        assert d["seq"] == event.seq
        assert d["packet_index"] == 7
        assert d["wall_time"] == event.wall_time
        # Colliding payload keys are preserved under a data_ prefix.
        assert d["data_seq"] == 999
        assert d["data_wall_time"] == -1.0
        assert d["hit_rate"] == 0.5

    def test_perf_time_is_monotonic(self):
        bus = TelemetryBus()
        first = bus.emit("a")
        second = bus.emit("b")
        assert first.perf_time > 0.0
        assert second.perf_time >= first.perf_time
        assert second.to_dict()["perf_time"] == second.perf_time

    def test_empty_bus_is_falsy_but_preserved(self):
        # Regression guard: an empty bus has len 0 (falsy), so consumers
        # must None-check instead of using `bus or TelemetryBus()`.
        bus = TelemetryBus()
        assert not bus
        from repro.runtime import ReconfigPlanner

        planner = ReconfigPlanner(telemetry=bus)
        assert planner.telemetry is bus
