"""The ``p4all obs`` view: :func:`snapshot` data and its :func:`render`
text — empty inputs, deep trees, SLO sections, worker attribution, and
the combined ``p4all obs --format json`` output."""

import json

from repro.obs import MetricsRegistry, Tracer, chrome_trace
from repro.obs.record import FlightRecorder
from repro.obs.view import render, snapshot


def _nested_trace(depth: int) -> dict:
    tracer = Tracer(enabled=True)

    def rec(d: int) -> None:
        with tracer.span(f"level{d}"):
            if d:
                rec(d - 1)
            else:
                tracer.event("telemetry.slo_violation", rule="hit_rate",
                             subject="cms", value=0.1, ewma=0.2,
                             threshold=0.25)

    rec(depth)
    return chrome_trace(tracer)


class TestTraceSummary:
    def test_empty_trace(self):
        assert render(snapshot(trace={"traceEvents": []})) \
            == "trace contains no spans"
        data = snapshot(trace={"traceEvents": []})["trace"]
        assert data["spans"] == 0 and data["aggregates"] == []

    def test_deep_tree_capped_at_tree_depth(self):
        rendered = render(snapshot(trace=_nested_trace(10), depth=3, top=5))
        # The aggregate table is capped too, so the deepest levels only
        # exist past both caps — and must not be rendered.
        assert "slowest root span" in rendered
        assert "level10" in rendered
        assert "level0" not in rendered
        assert "more span names" in rendered

    def test_slo_violations_called_out(self):
        data = snapshot(trace=_nested_trace(2))["trace"]
        [record] = data["slo_violations"]
        assert record["rule"] == "hit_rate"
        assert "span_id" not in record
        rendered = render(snapshot(trace=_nested_trace(2)))
        assert "SLO violations (1):" in rendered
        assert "hit_rate on cms" in rendered

    def test_events_grouped_by_name(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root") as span:
            span.event("telemetry.window")
            span.event("telemetry.window")
            span.event("telemetry.swap_committed")
        data = snapshot(trace=chrome_trace(tracer))["trace"]
        assert data["events_by_name"] == {"telemetry.window": 2,
                                          "telemetry.swap_committed": 1}
        rendered = render(snapshot(trace=chrome_trace(tracer)))
        assert "events by name:" in rendered

    def test_worker_attribution_collected(self):
        tracer = Tracer(enabled=True)
        with tracer.span("pisa.batch"):
            with tracer.span("pisa.worker.batch", worker=1):
                pass
            with tracer.span("pisa.worker.batch", worker=0):
                pass
        data = snapshot(trace=chrome_trace(tracer))["trace"]
        assert data["workers"] == [0, 1]


class TestPrometheusSummary:
    def test_empty_text(self):
        assert render(snapshot(metrics="")) == "no metrics"
        assert snapshot(metrics="")["metrics"]["families"] == {}

    def test_histogram_suffixes_fold_into_one_family(self):
        reg = MetricsRegistry()
        reg.counter("p4all_packets_total", labels=("engine",)).inc(
            5, engine="vector")
        reg.histogram("p4all_reconfig_seconds", buckets=(1, 10)).observe(2)
        families = snapshot(
            metrics=reg.to_prometheus())["metrics"]["families"]
        assert set(families) == {"p4all_packets_total",
                                 "p4all_reconfig_seconds"}
        hist = families["p4all_reconfig_seconds"]
        assert hist["type"] == "histogram"
        # _bucket/_sum/_count samples all land under the base family.
        suffixes = {s["name"] for s in hist["samples"]}
        assert "p4all_reconfig_seconds_sum" in suffixes
        [total] = families["p4all_packets_total"]["samples"]
        assert total["labels"] == {"engine": "vector"}
        assert total["value"] == 5
        rendered = render(snapshot(metrics=reg.to_prometheus()))
        assert "2 metric families" in rendered

    def test_malformed_sample_is_a_clean_cli_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.prom"
        path.write_text("# TYPE c counter\nc{x=\"1\" 3\n")
        assert main(["obs", "--metrics", str(path)]) == 1
        assert "malformed sample" in capsys.readouterr().err

    def test_sample_overflow_is_elided(self):
        reg = MetricsRegistry()
        c = reg.counter("many_total", labels=("i",))
        for i in range(12):
            c.inc(i=str(i))
        rendered = render(snapshot(metrics=reg.to_prometheus()))
        assert "... and 4 more" in rendered


class TestFlightSummary:
    def test_dump_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        rec = FlightRecorder()
        rec.note("batch", "pisa.batch", packets=100)
        rec.note("telemetry", "slo_violation", rule="hit_rate",
                 subject="cms", ewma=0.1, threshold=0.25)
        path = tmp_path / "flight.jsonl"
        rec.dump(path, registry=reg)
        data = snapshot(flight=path.read_text())["flight"]
        assert data["entries"] == 2
        assert data["by_kind"] == {"batch": 1, "telemetry": 1}
        assert data["metrics_families"] == 1
        [violation] = data["slo_violations"]
        assert violation["data"]["rule"] == "hit_rate"
        rendered = render(snapshot(flight=path.read_text()))
        assert "2 flight entries" in rendered
        assert "SLO violations (1):" in rendered
        assert "hit_rate on cms" in rendered

    def test_empty_dump(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        FlightRecorder().dump(path, registry=MetricsRegistry())
        assert render(snapshot(flight=path.read_text())) \
            == "flight dump is empty"


class TestObsJsonFormat:
    def _artifacts(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(json.dumps(_nested_trace(3)))
        reg = MetricsRegistry()
        reg.counter("p4all_packets_total", labels=("engine",)).inc(
            7, engine="vector")
        metrics_path = tmp_path / "metrics.prom"
        metrics_path.write_text(reg.to_prometheus())
        rec = FlightRecorder()
        rec.note("batch", "pisa.batch", packets=7)
        flight_path = tmp_path / "flight.jsonl"
        rec.dump(flight_path, registry=reg)
        return trace_path, metrics_path, flight_path

    def test_format_json_combines_all_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        trace_path, metrics_path, flight_path = self._artifacts(tmp_path)
        rc = main(["obs", str(trace_path), "--metrics", str(metrics_path),
                   "--flight", str(flight_path), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["trace"]["spans"] == 4
        assert len(out["trace"]["slo_violations"]) == 1
        assert "p4all_packets_total" in out["metrics"]["families"]
        assert out["flight"]["entries"] == 1

    def test_format_json_with_trace_only(self, tmp_path, capsys):
        from repro.cli import main

        trace_path, _, _ = self._artifacts(tmp_path)
        rc = main(["obs", str(trace_path), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert set(out) == {"trace"}

    def test_text_mode_renders_flight_section(self, tmp_path, capsys):
        from repro.cli import main

        trace_path, metrics_path, flight_path = self._artifacts(tmp_path)
        rc = main(["obs", str(trace_path), "--metrics", str(metrics_path),
                   "--flight", str(flight_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "slowest root span" in out
        assert "metric families" in out
        assert "flight entries" in out
