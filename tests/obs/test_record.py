"""Flight recorder: ring bounds, tracer sink, JSONL dumps, and the
crash/signal dump hooks."""

import json
import os
import signal
import sys
import time

from repro.obs import MetricsRegistry, Tracer
from repro.obs.record import (
    CAPACITY,
    FlightRecorder,
    install_flight_dump,
    maybe_install_from_env,
)


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


class TestRing:
    def test_ring_is_bounded_and_keeps_newest(self):
        rec = FlightRecorder()
        for i in range(CAPACITY + 6):
            rec.note("batch", f"n{i}")
        assert len(rec) == CAPACITY
        entries = rec.entries()
        assert [e["name"] for e in entries[:2]] == ["n6", "n7"]
        assert entries[-1]["name"] == f"n{CAPACITY + 5}"
        # Sequence numbers keep counting across evictions.
        assert [e["seq"] for e in entries[:2]] == [7, 8]
        assert entries[-1]["seq"] == CAPACITY + 6

    def test_entry_shape_and_optional_data(self):
        rec = FlightRecorder()
        rec.note("batch", "plain")
        rec.note("batch", "rich", packets=5)
        plain, rich = rec.entries()
        assert "data" not in plain
        assert rich["data"] == {"packets": 5}
        assert rich["wall_time"] > 0

    def test_clear(self):
        rec = FlightRecorder()
        rec.note("a", "b")
        rec.clear()
        assert len(rec) == 0 and rec.entries() == []

    def test_tracer_sink_records_finished_spans(self):
        rec = FlightRecorder()
        tracer = Tracer(enabled=True)
        tracer.sinks.append(rec.on_span)
        with tracer.span("compile", backend="ilp"):
            pass
        [entry] = rec.entries()
        assert entry["kind"] == "span"
        assert entry["name"] == "compile"
        assert entry["data"]["attrs"]["backend"] == "ilp"
        assert entry["data"]["duration"] >= 0

    def test_non_json_safe_payloads_become_reprs(self, tmp_path):
        rec = FlightRecorder()
        rec.note("odd", "obj", thing=object(), ok=1)
        [entry] = rec.entries()
        assert entry["data"]["ok"] == 1
        assert isinstance(entry["data"]["thing"], str)
        # And the dump still serializes.
        rec.dump(tmp_path / "f.jsonl", registry=MetricsRegistry())


class TestDump:
    def test_dump_writes_jsonl_with_closing_snapshot(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(3)
        rec = FlightRecorder()
        rec.note("batch", "pisa.batch", packets=5)
        path = tmp_path / "flight.jsonl"
        assert rec.dump(path, registry=reg) == 1
        lines = _read_jsonl(path)
        assert lines[0]["kind"] == "batch"
        assert lines[-1]["kind"] == "metrics_snapshot"
        assert "c_total" in lines[-1]["metrics"]

    def test_empty_ring_dumps_snapshot_only(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        assert FlightRecorder().dump(path, registry=MetricsRegistry()) == 0
        [snap] = _read_jsonl(path)
        assert snap["kind"] == "metrics_snapshot"


class TestInstall:
    def test_excepthook_dumps_crash_context(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        rec = FlightRecorder()
        rec.note("batch", "before-crash")
        prev = sys.excepthook
        sys.excepthook = lambda *a: None  # silence the chained print
        try:
            uninstall = install_flight_dump(path, rec)
            sys.excepthook(ValueError, ValueError("boom"), None)
        finally:
            uninstall()
            sys.excepthook = prev
        kinds = [e["kind"] for e in _read_jsonl(path)]
        assert "batch" in kinds and "crash" in kinds
        assert kinds[-1] == "metrics_snapshot"

    def test_sigusr1_dumps(self, tmp_path):
        path = tmp_path / "sig.jsonl"
        rec = FlightRecorder()
        rec.note("batch", "steady")
        uninstall = install_flight_dump(path, rec)
        try:
            os.kill(os.getpid(), signal.SIGUSR1)
            deadline = time.time() + 5
            while not path.exists() and time.time() < deadline:
                time.sleep(0.01)
        finally:
            uninstall()
        entries = _read_jsonl(path)
        dumps = [e for e in entries
                 if e["kind"] == "flight" and e["name"] == "dump"]
        assert dumps and dumps[0]["data"]["reason"] == "signal"

    def test_uninstall_restores_hooks(self, tmp_path):
        prev_hook = sys.excepthook
        prev_signal = signal.getsignal(signal.SIGUSR1)
        uninstall = install_flight_dump(tmp_path / "f.jsonl",
                                        FlightRecorder())
        assert sys.excepthook is not prev_hook
        uninstall()
        assert sys.excepthook is prev_hook
        assert signal.getsignal(signal.SIGUSR1) == prev_signal

    def test_maybe_install_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHT", raising=False)
        assert maybe_install_from_env(FlightRecorder()) is None
        monkeypatch.setenv("REPRO_FLIGHT", str(tmp_path / "env.jsonl"))
        uninstall = maybe_install_from_env(FlightRecorder())
        assert uninstall is not None
        uninstall()
