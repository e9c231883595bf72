"""Unified observability: tracing spans + metrics across the stack.

One substrate for all measurement (see docs/OBSERVABILITY.md):

* :data:`trace` — the process-wide :class:`~repro.obs.tracer.Tracer`.
  Disabled by default (near-zero overhead: one attribute check per
  instrumentation site); enabled by ``p4all ... --trace out.json``,
  ``REPRO_TRACE=1``, or :meth:`~repro.obs.tracer.Tracer.enable`.
  Exports to Chrome trace-event JSON (open in Perfetto /
  ``chrome://tracing``).
* :data:`metrics` — the process-wide
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges, and
  histograms; always on (updates are batch-level, never per-packet).
  Exports to the Prometheus text exposition format.
* :data:`flight` — the process-wide
  :class:`~repro.obs.record.FlightRecorder` ring of recent activity.

A runtime :class:`~repro.runtime.telemetry.TelemetryBus` reaches all
three on every ``emit`` (a per-kind counter, a flight note, and an
instant in the active span), so control-plane events land on the same
timeline. :mod:`repro.obs.view` renders the exported artifacts
(``p4all obs``) and the live registry (``p4all top``) as one view.

Instrumentation sites just do::

    from ..obs import trace, metrics

    with trace.span("ilp.solve", variables=n) as sp:
        solution = ...
        sp.set_attr("status", solution.status.value)
    metrics.counter("p4all_ilp_solves_total", labels=("backend",)) \\
        .inc(backend=solution.backend)

This package imports nothing from the rest of :mod:`repro`, so every
layer (lang → core → ilp → pisa → runtime) may depend on it without
cycles.
"""

from .aggregate import (
    WorkerObsCapture,
    adopt_spans,
    apply_obs_control,
    merge_metric_deltas,
    merge_worker_obs,
    metric_deltas,
    obs_control,
    snapshot_metrics,
)
from .bridge import bridge_fleet_report
from .export import (
    chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    validate_prometheus_file,
    validate_prometheus_text,
    write_chrome_trace,
    write_prometheus,
)
from .metrics import Counter, Gauge, Histogram, MetricError, MetricsRegistry
from .record import FlightRecorder, install_flight_dump, maybe_install_from_env
from .slo import DEFAULT_SLO_RULES, SloMonitor, SloRule
from .tracer import NULL_SPAN, Span, SpanEvent, Tracer

__all__ = [
    "trace",
    "metrics",
    "flight",
    "observed",
    "FlightRecorder",
    "install_flight_dump",
    "maybe_install_from_env",
    "SloMonitor",
    "SloRule",
    "DEFAULT_SLO_RULES",
    "WorkerObsCapture",
    "obs_control",
    "apply_obs_control",
    "snapshot_metrics",
    "metric_deltas",
    "merge_metric_deltas",
    "adopt_spans",
    "merge_worker_obs",
    "bridge_fleet_report",
    "Tracer",
    "Span",
    "SpanEvent",
    "NULL_SPAN",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "chrome_trace",
    "write_chrome_trace",
    "write_prometheus",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "validate_prometheus_text",
    "validate_prometheus_file",
]

#: Process-wide tracer. Disabled unless REPRO_TRACE is set (or a CLI
#: flag / test enables it); instrumentation is free while disabled.
trace = Tracer()

#: Process-wide metrics registry; always on.
metrics = MetricsRegistry()

#: Process-wide flight recorder; always on (one tuple append per
#: note). Registered as a tracer sink so finished spans land in the
#: ring even when no exporter is configured.
flight = FlightRecorder()
trace.sinks.append(flight.on_span)

# REPRO_FLIGHT=/path/out.jsonl arms crash/signal dumping process-wide.
maybe_install_from_env(flight)


class observed:
    """Context manager tying a region to exported artifacts.

    Enables the global tracer when ``trace_path`` is given, and on exit
    — even an exceptional one, so a failed compile still leaves its
    partial timeline behind — writes the Chrome trace and/or Prometheus
    textfile. The CLI wraps each ``--trace``/``--metrics`` command in
    one of these.
    """

    def __init__(self, trace_path=None, metrics_path=None,
                 flight_path=None, tracer: Tracer | None = None,
                 registry: MetricsRegistry | None = None,
                 recorder: FlightRecorder | None = None):
        self.trace_path = trace_path
        self.metrics_path = metrics_path
        self.flight_path = flight_path
        self.tracer = tracer if tracer is not None else trace
        self.registry = registry if registry is not None else metrics
        self.recorder = recorder if recorder is not None else flight
        self._uninstall_flight = None

    def __enter__(self) -> "observed":
        if self.trace_path is not None:
            self.tracer.enable(reset=True)
        if self.flight_path is not None:
            # Arm crash/signal dumping for the duration of the region;
            # a clean exit writes the ring below anyway.
            self._uninstall_flight = install_flight_dump(
                self.flight_path, self.recorder
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.trace_path is not None:
            write_chrome_trace(self.tracer, self.trace_path)
            self.tracer.disable()
        if self.metrics_path is not None:
            write_prometheus(self.registry, self.metrics_path)
        if self.flight_path is not None:
            if self._uninstall_flight is not None:
                self._uninstall_flight()
                self._uninstall_flight = None
            if exc_type is None:  # crash path already dumped via hook
                self.recorder.dump(self.flight_path, self.registry)
        return False
