"""Cross-process obs aggregation: snapshot/delta/merge roundtrips,
span adoption, the worker capture bracket, and the end-to-end pool
path producing one merged trace with exact packet accounting."""

import multiprocessing

import pytest

from repro import obs
from repro.core import compile_source
from repro.obs import MetricsRegistry, Tracer, chrome_trace, validate_chrome_trace
from repro.obs.aggregate import (
    WorkerObsCapture,
    _deltas_and_snapshot,
    adopt_spans,
    apply_obs_control,
    merge_metric_deltas,
    merge_worker_obs,
    metric_deltas,
    obs_control,
    snapshot_metrics,
)
from repro.obs.view import snapshot
from repro.pisa import Packet, Pipeline, small_target
from repro.structures import CMS_SOURCE


def _fork_available() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="fork start method unavailable")


def _counter_value(name: str, **labels) -> float:
    metric = obs.metrics.get(name)
    return metric.value(**labels) if metric is not None else 0.0


class TestMetricDeltas:
    def test_counter_deltas_merge_additively(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", labels=("who",))
        c.inc(3, who="a")
        base = snapshot_metrics(reg)
        c.inc(2, who="a")
        c.inc(5, who="b")
        dst = MetricsRegistry()
        dst.counter("hits_total", labels=("who",)).inc(10, who="a")
        merge_metric_deltas(metric_deltas(reg, base), dst)
        assert dst.get("hits_total").value(who="a") == 12
        assert dst.get("hits_total").value(who="b") == 5

    def test_unchanged_registry_ships_nothing(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(7)
        base = snapshot_metrics(reg)
        assert metric_deltas(reg, base) == []

    def test_gauge_ships_changed_values_only(self):
        reg = MetricsRegistry()
        g = reg.gauge("occ", labels=("stage",))
        g.set(1.0, stage="0")
        g.set(2.0, stage="1")
        base = snapshot_metrics(reg)
        g.set(9.0, stage="1")
        deltas = metric_deltas(reg, base)
        [entry] = deltas
        assert entry["values"] == [(("1",), 9.0)]
        dst = MetricsRegistry()
        merge_metric_deltas(deltas, dst)
        assert dst.get("occ").value(stage="1") == 9.0

    def test_histogram_diffs_bucketwise(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1, 10))
        h.observe(0.5)
        base = snapshot_metrics(reg)
        h.observe(5)
        h.observe(100)
        dst = MetricsRegistry()
        dst.histogram("lat", buckets=(1, 10)).observe(0.2)
        merge_metric_deltas(metric_deltas(reg, base), dst)
        snap = dst.get("lat").snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(0.2 + 5 + 100)

    def test_histogram_new_key_ships_full_state(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", labels=("op",), buckets=(1,))
        h.observe(0.5, op="read")
        base = snapshot_metrics(reg)
        h.observe(2.0, op="write")
        deltas = metric_deltas(reg, base)
        [entry] = deltas
        [(key, state)] = entry["values"]
        assert key == ("write",)
        assert state["count"] == 1

    def test_merge_registers_metric_only_worker_touched(self):
        reg = MetricsRegistry()
        reg.counter("worker_only_total", help="h").inc(4)
        dst = MetricsRegistry()
        merge_metric_deltas(metric_deltas(reg, None), dst)
        assert dst.get("worker_only_total").value() == 4

    def test_snapshot_feeds_next_baseline(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(3)
        deltas, snap = _deltas_and_snapshot(reg, None)
        assert deltas[0]["values"] == [((), 3)]
        c.inc(2)
        deltas2, _ = _deltas_and_snapshot(reg, snap)
        assert deltas2[0]["values"] == [((), 2)]


class TestObsControl:
    def test_apply_aligns_enablement_and_epochs(self):
        parent = Tracer(enabled=True)
        worker = Tracer(enabled=False)
        apply_obs_control(obs_control(parent), worker)
        assert worker.enabled
        assert worker._epoch == parent._epoch
        assert worker.wall_epoch == parent.wall_epoch

    def test_none_control_disables(self):
        worker = Tracer(enabled=True)
        apply_obs_control(None, worker)
        assert not worker.enabled


class TestAdoptSpans:
    def test_two_pass_reparenting(self):
        worker = Tracer(enabled=True)
        with worker.span("outer"):
            with worker.span("inner"):
                pass
        dicts = [s.to_dict() for s in worker.spans]
        # Completion order puts the child first — the two-pass remap
        # must still connect it to its (later) parent.
        assert dicts[0]["name"] == "inner"

        parent = Tracer(enabled=True)
        with parent.span("pisa.batch") as batch:
            adopted = adopt_spans(parent, dicts, parent=batch, track=7,
                                  track_name="w", worker=3)
        by_name = {s.name: s for s in adopted}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id == batch.span_id
        for span in adopted:
            assert span.attrs["worker"] == 3
            assert span.thread_id == 7
            assert span.thread_name == "w"

    def test_adopted_spans_preserve_timing_and_events(self):
        worker = Tracer(enabled=True)
        with worker.span("batch") as ws:
            ws.event("tick", n=1)
        [d] = [s.to_dict() for s in worker.spans]
        parent = Tracer(enabled=True)
        [adopted] = adopt_spans(parent, [d])
        assert adopted.start == d["start"]
        assert adopted.end == d["end"]
        [ev] = adopted.events
        assert ev.name == "tick"
        assert ev.attrs["n"] == 1


class TestWorkerObsCapture:
    def test_nothing_to_ship_returns_none(self):
        cap = WorkerObsCapture(Tracer(enabled=False), MetricsRegistry())
        cap.begin(None)
        assert cap.finish() is None
        # The parent-side merge treats None as a no-op.
        merge_worker_obs(None, worker=0)

    def test_payload_roundtrip_through_parent_merge(self):
        parent = Tracer(enabled=True)
        preg = MetricsRegistry()
        wt = Tracer(enabled=False)
        wreg = MetricsRegistry()
        cap = WorkerObsCapture(wt, wreg)
        cap.begin(obs_control(parent))
        assert wt.enabled
        with wt.span("pisa.worker.batch", shard_mode="pool"):
            wreg.counter("p4all_worker_packets_total",
                         labels=("worker", "shard_mode")).inc(
                10, worker=1, shard_mode="pool")
        payload = cap.finish()
        assert payload["spans"] and payload["metrics"]

        with parent.span("pisa.batch") as batch:
            merge_worker_obs(payload, worker=1, track=1_000_001,
                             track_name="pool-worker-1", tracer=parent,
                             registry=preg)
        [wspan] = parent.spans_named("pisa.worker.batch")
        assert wspan.attrs["worker"] == 1
        assert wspan.parent_id == batch.span_id
        assert wspan.thread_id == 1_000_001
        assert preg.get("p4all_worker_packets_total").value(
            worker=1, shard_mode="pool") == 10

    def test_second_batch_ships_only_new_deltas(self):
        wt = Tracer(enabled=False)
        wreg = MetricsRegistry()
        c = wreg.counter("c")
        cap = WorkerObsCapture(wt, wreg)
        cap.begin(None)
        c.inc(5)
        [entry] = cap.finish()["metrics"]
        assert entry["values"] == [((), 5)]
        cap.begin(None)
        c.inc(2)
        [entry] = cap.finish()["metrics"]
        assert entry["values"] == [((), 2)]


def _build_vector_pipeline():
    compiled = compile_source(CMS_SOURCE,
                              small_target(stages=6, memory_kb=32))
    return Pipeline(compiled, engine="vector")


@needs_fork
class TestPoolTraceMerge:
    def test_pool_trace_attributes_all_workers_and_matches_inline(self):
        """ISSUE acceptance: a traced ``process_many(..., workers=4)``
        yields one Chrome trace with spans from all 4 children, and the
        parent's merged packet counter matches inline mode exactly."""
        packets = [Packet(fields={"flow_id": i % 499}) for i in range(4000)]
        pipe = _build_vector_pipeline()
        obs.trace.enable()
        before = _counter_value("p4all_packets_total", engine="vector")
        worker_before = sum(
            v for _, _, v in (obs.metrics.get("p4all_worker_packets_total")
                              .samples())
        ) if obs.metrics.get("p4all_worker_packets_total") else 0
        try:
            pipe.process_many(packets, collect=False, workers=4)
            assert pipe.last_shard_report["mode"] == "pool", \
                pipe.last_shard_report
        finally:
            pipe.close()
        pool_total = _counter_value("p4all_packets_total",
                                    engine="vector") - before

        obj = chrome_trace(obs.trace)
        assert validate_chrome_trace(obj) > 0
        data = snapshot(trace=obj)["trace"]
        assert data["workers"] == [0, 1, 2, 3]

        [batch] = obs.trace.spans_named("pisa.batch")
        wspans = obs.trace.spans_named("pisa.worker.batch")
        assert {s.attrs["worker"] for s in wspans} == {0, 1, 2, 3}
        for span in wspans:
            assert span.parent_id == batch.span_id
            assert span.thread_name.startswith("pool-worker-")
            assert span.attrs["shard_mode"] == "pool"

        # Workers count their own shares; together they cover the batch.
        worker_total = sum(
            v for _, _, v in obs.metrics.get("p4all_worker_packets_total")
            .samples()) - worker_before
        assert worker_total == len(packets)

        # Exact parity with a fresh inline run of the same batch.
        obs.trace.disable()
        obs.trace.reset()
        inline = _build_vector_pipeline()
        before = _counter_value("p4all_packets_total", engine="vector")
        inline.process_many(packets, collect=False)
        inline_total = _counter_value("p4all_packets_total",
                                      engine="vector") - before
        assert pool_total == inline_total == len(packets)
