"""Cross-process trace/metric aggregation.

The sharded worker pool (:mod:`repro.pisa.pool`) forks the hot path
into child processes — which fork *copies* of the global tracer and
metrics registry that the parent never sees again. This module closes
that gap with a capture/merge protocol over the existing control pipes:

1. The parent ships an :func:`obs_control` tuple with each batch so the
   child's tracer agrees on enablement and clock epoch (``perf_counter``
   is CLOCK_MONOTONIC on Linux, shared across ``fork``, so equal epochs
   mean worker timestamps land directly on the parent's timeline).
2. The child wraps the batch in a :class:`WorkerObsCapture`: snapshot
   the metrics registry before, diff after, and
   export any spans it finished. The result is a plain-data payload
   appended to the existing batch-end reply.
3. The parent calls :func:`merge_worker_obs`: counters are summed,
   histograms merged bucket-wise, gauges overwritten, and spans adopted
   (:func:`adopt_spans`) with fresh ids, re-parented under the live
   batch span, and labeled with their worker — so one Chrome trace, one
   Prometheus export, and one ``p4all obs`` summary show the whole pool.

Everything shipped is plain tuples/dicts/lists, picklable over the
pipes the engines already run.
"""

from __future__ import annotations

from typing import Any

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracer import Span, SpanEvent, Tracer

__all__ = [
    "obs_control",
    "apply_obs_control",
    "snapshot_metrics",
    "merge_metric_deltas",
    "export_spans",
    "adopt_spans",
    "WorkerObsCapture",
    "merge_worker_obs",
]


# -- control: parent -> worker -------------------------------------------------

def obs_control(tracer: Tracer | None = None) -> tuple:
    """The parent-side tuple shipped with each batch: ``(enabled,
    perf_epoch, wall_epoch)``. Cheap enough to send unconditionally."""
    if tracer is None:
        from . import trace as tracer
    return (tracer.enabled, tracer._epoch, tracer.wall_epoch)


def apply_obs_control(ctl, tracer: Tracer | None = None) -> None:
    """Align a worker's tracer with the parent's control tuple.

    Sets enablement and *adopts the parent's epochs* instead of
    resetting to local ones — a pool worker forks once at pool creation
    but the parent may enable tracing (resetting its epoch) much later,
    so the epochs must be re-shipped per batch for timestamps to align.
    Recorded spans from prior batches are dropped; they were already
    shipped.
    """
    if tracer is None:
        from . import trace as tracer
    if ctl is None:
        tracer.enabled = False
        return
    enabled, epoch, wall_epoch = ctl
    tracer.enabled = bool(enabled)
    tracer._epoch = epoch
    tracer.wall_epoch = wall_epoch
    tracer.clear_recorded()


# -- metrics: snapshot / delta / merge ----------------------------------------

def _metric_meta(metric) -> dict[str, Any]:
    meta = {
        "name": metric.name,
        "kind": metric.kind,
        "help": metric.help,
        "labels": tuple(metric.labels),
    }
    if isinstance(metric, Histogram):
        meta["buckets"] = tuple(metric.buckets)
    return meta


def snapshot_metrics(registry: MetricsRegistry | None = None) -> dict:
    """Deep-copy the current per-labelset values of every instrument,
    keyed by metric name: the baseline a worker's deltas diff against."""
    if registry is None:
        from . import metrics as registry
    snap: dict[str, dict] = {}
    for metric in registry.collect():
        with metric._lock:
            if isinstance(metric, Histogram):
                values = {
                    key: {"counts": list(state["counts"]),
                          "sum": state["sum"], "count": state["count"]}
                    for key, state in metric._values.items()
                }
            else:
                values = dict(metric._values)
        snap[metric.name] = values
    return snap


def _deltas_and_snapshot(registry: MetricsRegistry | None = None,
                         baseline: dict | None = None
                         ) -> tuple[list[dict], dict]:
    """One registry walk yielding both what changed since ``baseline``,
    as a list of plain dicts, and a fresh snapshot —
    :class:`WorkerObsCapture` feeds the snapshot straight back as the
    next batch's baseline, so a steady-state worker pays a single walk
    per batch.

    Counters and histograms ship the *difference* (so the parent can
    sum them in); gauges ship their current value for changed keys (the
    parent overwrites — last writer wins, which is the right call for
    occupancy-style gauges a worker recomputes per batch).
    """
    if registry is None:
        from . import metrics as registry
    baseline = baseline or {}
    out: list[dict] = []
    snap: dict[str, dict] = {}
    for metric in registry.collect():
        base = baseline.get(metric.name, {})
        rows: list[tuple] = []
        with metric._lock:
            items = list(metric._values.items())
        if isinstance(metric, Histogram):
            current = {}
            for key, state in items:
                current[key] = {"counts": list(state["counts"]),
                                "sum": state["sum"],
                                "count": state["count"]}
                prev = base.get(key)
                if prev is None:
                    delta = current[key]
                else:
                    delta = {
                        "counts": [c - p for c, p in
                                   zip(state["counts"], prev["counts"])],
                        "sum": state["sum"] - prev["sum"],
                        "count": state["count"] - prev["count"],
                    }
                if delta["count"] or delta["sum"]:
                    rows.append((key, delta))
            snap[metric.name] = current
        elif isinstance(metric, Counter):
            for key, value in items:
                delta = value - base.get(key, 0)
                if delta:
                    rows.append((key, delta))
            snap[metric.name] = dict(items)
        else:  # Gauge (and any untyped metric): ship changed values
            for key, value in items:
                if key not in base or base[key] != value:
                    rows.append((key, value))
            snap[metric.name] = dict(items)
        if rows:
            entry = _metric_meta(metric)
            entry["values"] = rows
            out.append(entry)
    return out, snap


def merge_metric_deltas(deltas: list[dict],
                        registry: MetricsRegistry | None = None) -> None:
    """Fold worker deltas into ``registry`` (default: the global one).

    Instruments are (re-)registered by the shipped shape, so a metric
    only a worker ever touched still appears in the parent's export.
    """
    if registry is None:
        from . import metrics as registry
    for entry in deltas:
        name, kind, labels = entry["name"], entry["kind"], entry["labels"]
        if kind == "counter":
            metric = registry.counter(name, help=entry["help"], labels=labels)
            for key, delta in entry["values"]:
                metric.inc(delta, **dict(zip(labels, key)))
        elif kind == "histogram":
            metric = registry.histogram(name, help=entry["help"],
                                        labels=labels,
                                        buckets=entry["buckets"])
            for key, state in entry["values"]:
                metric.merge_state(state, **dict(zip(labels, key)))
        elif kind == "gauge":
            metric = registry.gauge(name, help=entry["help"], labels=labels)
            for key, value in entry["values"]:
                metric.set(value, **dict(zip(labels, key)))


# -- spans: export / adopt ----------------------------------------------------

def export_spans(tracer: Tracer | None = None) -> list[dict]:
    """Finished spans as plain dicts, completion order preserved."""
    if tracer is None:
        from . import trace as tracer
    return [s.to_dict() for s in tracer.spans]


def adopt_spans(tracer: Tracer, span_dicts: list[dict],
                parent: Span | None = None, track: int = 0,
                track_name: str = "", **attrs: Any) -> list[Span]:
    """Rebuild foreign span dicts as spans of ``tracer``.

    Two passes, because worker span lists are in completion order
    (children before their parents): first construct every span with a
    fresh id from the adopting tracer, then remap parent links through
    the id map. Roots re-parent under ``parent`` (typically the live
    ``pisa.batch`` span), land on Chrome-trace track ``track``, and all
    spans gain ``attrs`` (e.g. ``worker=2``).
    """
    id_map: dict[int, Span] = {}
    adopted: list[Span] = []
    for d in span_dicts:
        sp = Span(tracer, d["name"], dict(d.get("attrs") or {}))
        sp.attrs.update(attrs)
        sp.start = d["start"]
        sp.end = d["end"]
        sp.thread_id = track or d.get("thread_id", 0)
        sp.thread_name = track_name or d.get("thread_name", "")
        sp.events = [
            SpanEvent(e["name"], e["ts"], dict(e.get("attrs") or {}))
            for e in d.get("events") or []
        ]
        old_id = d.get("span_id")
        if old_id is not None:
            id_map[old_id] = sp
        adopted.append(sp)
    for d, sp in zip(span_dicts, adopted):
        old_parent = d.get("parent_id")
        mapped = id_map.get(old_parent) if old_parent is not None else None
        if mapped is not None:
            sp.parent_id = mapped.span_id
        elif parent is not None:
            sp.parent_id = parent.span_id
        tracer._record(sp)
    return adopted


# -- the worker-side capture + parent-side merge ------------------------------

class WorkerObsCapture:
    """Worker-side bracket around one batch.

    ``begin(ctl)`` aligns the tracer with the parent's
    :func:`obs_control` tuple and snapshots metrics; ``finish()``
    returns the plain-data payload to append to the batch-end reply —
    or ``None`` when there is nothing to ship, so the common untraced
    path costs one snapshot/diff of the registry per batch.
    """

    def __init__(self, tracer: Tracer | None = None,
                 registry: MetricsRegistry | None = None):
        if tracer is None:
            from . import trace as tracer
        if registry is None:
            from . import metrics as registry
        self.tracer = tracer
        self.registry = registry
        self._baseline: dict | None = None

    def begin(self, ctl) -> None:
        apply_obs_control(ctl, self.tracer)
        if self._baseline is None:  # later batches reuse finish()'s walk
            self._baseline = snapshot_metrics(self.registry)

    def finish(self) -> dict | None:
        spans = export_spans(self.tracer) if self.tracer.enabled else []
        events = ([e.to_dict() for e in self.tracer.orphan_events]
                  if self.tracer.enabled else [])
        deltas, self._baseline = _deltas_and_snapshot(self.registry,
                                                      self._baseline)
        self.tracer.clear_recorded()
        if not spans and not events and not deltas:
            return None
        return {"spans": spans, "events": events, "metrics": deltas}


def merge_worker_obs(payload: dict | None, worker: int | str,
                     track: int = 0, track_name: str = "",
                     tracer: Tracer | None = None,
                     registry: MetricsRegistry | None = None,
                     parent: Span | None = None) -> None:
    """Parent-side merge of one worker's :meth:`WorkerObsCapture.finish`
    payload. Metrics always merge; spans only when the parent tracer is
    enabled (re-parented under ``parent``, defaulting to the current
    open span, with a ``worker`` attribute on every adopted span)."""
    if payload is None:
        return
    if tracer is None:
        from . import trace as tracer
    if registry is None:
        from . import metrics as registry
    merge_metric_deltas(payload.get("metrics") or [], registry)
    if not tracer.enabled:
        return
    if parent is None:
        parent = tracer.current_span()
    if not track_name:
        track_name = f"worker-{worker}"
    adopt_spans(tracer, payload.get("spans") or [], parent=parent,
                track=track, track_name=track_name, worker=worker)
    for e in payload.get("events") or []:
        ev = SpanEvent(e["name"], e["ts"],
                       {**(e.get("attrs") or {}), "worker": worker})
        try:
            parent.events.append(ev)
        except AttributeError:  # no open span (or NULL_SPAN): keep as orphan
            with tracer._lock:
                tracer._events.append(ev)
