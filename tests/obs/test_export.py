"""Exporter and validator tests: Chrome trace JSON, JSONL, Prometheus."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    validate_prometheus_file,
    validate_prometheus_text,
    write_chrome_trace,
    write_prometheus,
)


def _traced() -> Tracer:
    tracer = Tracer(enabled=True)
    with tracer.span("compile", backend="scipy") as outer:
        outer.event("checkpoint", phase="parse")
        with tracer.span("ilp.solve", status="optimal"):
            pass
    tracer.event("orphan", note="outside")
    return tracer


class TestChromeTrace:
    def test_structure_and_validation(self):
        obj = chrome_trace(_traced())
        assert validate_chrome_trace(obj) == len(obj["traceEvents"])
        assert obj["displayTimeUnit"] == "ms"
        phases = [e["ph"] for e in obj["traceEvents"]]
        assert phases.count("X") == 2
        assert phases.count("i") == 2  # span event + orphan
        assert "M" in phases

    def test_metadata_events_sort_first(self):
        events = chrome_trace(_traced())["traceEvents"]
        metas = [i for i, e in enumerate(events) if e["ph"] == "M"]
        assert metas == list(range(len(metas)))

    def test_args_carry_span_tree(self):
        events = chrome_trace(_traced())["traceEvents"]
        by_name = {e["name"]: e for e in events if e["ph"] == "X"}
        outer = by_name["compile"]
        inner = by_name["ilp.solve"]
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        assert outer["args"]["parent_id"] is None
        assert outer["args"]["backend"] == "scipy"

    def test_category_is_name_prefix(self):
        events = chrome_trace(_traced())["traceEvents"]
        by_name = {e["name"]: e for e in events if e["ph"] == "X"}
        assert by_name["ilp.solve"]["cat"] == "ilp"

    def test_instant_scope(self):
        events = chrome_trace(_traced())["traceEvents"]
        instants = {e["name"]: e for e in events if e["ph"] == "i"}
        assert instants["checkpoint"]["s"] == "t"  # span-attached: thread
        assert instants["orphan"]["s"] == "p"      # orphan: process

    def test_non_json_attrs_are_stringified(self):
        tracer = Tracer(enabled=True)
        with tracer.span("x", obj=object(), seq=(1, 2), nested={"k": {1}}):
            pass
        obj = chrome_trace(tracer)
        validate_chrome_trace(obj)
        json.dumps(obj)  # fully serializable

    def test_write_and_validate_file(self, tmp_path):
        path = tmp_path / "sub" / "trace.json"
        write_chrome_trace(_traced(), path)
        assert validate_chrome_trace_file(path) > 0


class TestChromeTraceValidator:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])

    def test_rejects_empty_events(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing 'ts'"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 1}]}
            )

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="unsupported phase"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "Z", "ts": 0,
                                  "pid": 1, "tid": 1}]}
            )

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="invalid dur"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "dur": -1,
                                  "pid": 1, "tid": 1}]}
            )


class TestPrometheusValidator:
    def test_accepts_rendered_registry(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a_total", help="h", labels=("x",)).inc(x="1")
        registry.histogram("b_seconds", help="h").observe(0.1)
        path = write_prometheus(registry, tmp_path / "m.prom")
        assert validate_prometheus_file(path) > 0

    def test_rejects_sample_without_type(self):
        with pytest.raises(ValueError, match="no preceding # TYPE"):
            validate_prometheus_text("a_total 1\n")

    def test_rejects_bad_type_line(self):
        with pytest.raises(ValueError, match="bad TYPE"):
            validate_prometheus_text("# TYPE a_total widget\na_total 1\n")

    def test_rejects_non_numeric_value(self):
        with pytest.raises(ValueError, match="non-numeric"):
            validate_prometheus_text("# TYPE a counter\na banana\n")

    def test_rejects_bucket_without_le(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{x="1"} 1\nh_sum 1\nh_count 1\n')
        with pytest.raises(ValueError, match="missing le label"):
            validate_prometheus_text(text)

    def test_rejects_malformed_label_pair(self):
        with pytest.raises(ValueError):
            validate_prometheus_text('# TYPE a counter\na{k=unquoted} 1\n')

    def test_accepts_escaped_quotes_in_label_values(self):
        text = '# TYPE a counter\na{k="say \\"hi\\", ok"} 1\n'
        assert validate_prometheus_text(text) == 1

    def test_empty_text_is_zero_samples(self):
        assert validate_prometheus_text("") == 0
