"""The elastic runtime control plane: monitor → recompile → hot-swap.

:class:`ElasticRuntime` closes the loop the paper leaves open: it runs a
compiled NetCache pipeline under a live key stream and *reconfigures it
online*. Two triggers arm a reconfiguration:

* **target change** — the operator re-provisions the data plane (e.g.
  shrinks per-stage register memory M); requested with
  :meth:`set_target` or scheduled mid-run with
  :meth:`schedule_target_change`;
* **drift** — the monitor sees the windowed hit rate fall below the
  steady baseline (the hot set moved faster than the cache followed).

A reconfiguration plans (ILP with retry/backoff, greedy fallback — see
:mod:`repro.runtime.planner`) and then runs :func:`hot_swap`, the one
swap the fleet controller runs per switch too: build the new pipeline,
migrate the app's state onto it (:meth:`NetCacheApp.migrate_to
<repro.apps.netcache.NetCacheApp.migrate_to>`), re-validate the
populated layout with :func:`~repro.core.validate.validate_layout` plus
a canary packet, and only then swap. Any failure rolls back to the
still-running old pipeline. Every step lands on the telemetry bus.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..apps.netcache import NETCACHE_UTILITY, NetCacheApp, netcache_linked
from ..core import CompileOptions, validate_layout
from ..obs import bridge_telemetry
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..obs.slo import SloMonitor
from ..pisa.resources import TargetSpec
from .migrate import MigrationReport
from .monitor import TrafficMonitor
from .planner import PlanError, PlanResult, ReconfigPlanner
from .telemetry import TelemetryBus

__all__ = ["RuntimeConfig", "ReconfigRecord", "RunReport", "ElasticRuntime"]


@dataclass(frozen=True)
class RuntimeConfig:
    """Control-loop knobs."""

    window_packets: int = 1000        # monitoring window size
    drop_threshold: float = 0.25      # relative hit-rate drop that means drift
    baseline_windows: int = 5         # windows forming the steady baseline
    warmup_windows: int = 4           # windows ignored after start/swap
    cooldown_windows: int = 10        # min windows between drift reconfigs
    hot_threshold: int = 4            # NetCache promotion threshold
    migrate_state: bool = True        # run the state migrator on swap
    drift_reconfig: bool = True       # arm the drift trigger at all
    engine: str | None = None         # pipeline engine (None = default)
    serve_batch: int | None = None    # serve sub-batch size; results
                                      # do not depend on it (0 = the
                                      # per-packet reference serve)
    slo_rules: tuple | None = None    # SLO rules (None = defaults, see
                                      # repro.obs.slo.default_slo_rules)


def _source_text(source) -> str:
    return source if isinstance(source, str) else source.source


def build_app(source, compiled, config) -> NetCacheApp:
    """The app a controller installs for a planned artifact: ``source``
    is a P4All string or a linked program, ``config`` the controller's
    (:class:`RuntimeConfig` here, ``FleetConfig`` in the fabric)."""
    return NetCacheApp(
        compiled.target,
        hot_threshold=config.hot_threshold,
        source=_source_text(source),
        compiled=compiled,
        engine=config.engine,
    )


@dataclass
class ReconfigRecord:
    """One reconfiguration cycle, committed or rolled back."""

    cause: str
    packet_index: int
    committed: bool
    backend: str = ""
    fallback: bool = False
    seconds: float = 0.0
    baseline_rate: float = 0.0
    migration: MigrationReport | None = None
    error: str = ""
    symbol_values: dict[str, int] = field(default_factory=dict)
    #: solver/cache observability from the planner (nodes explored,
    #: incumbent source, cache hit/miss counters)
    solver_stats: dict = field(default_factory=dict)
    #: per-module stage/memory/ALU/utility attribution (module name →
    #: flat dict), populated when the runtime source is a LinkedProgram
    module_attribution: dict = field(default_factory=dict)

    @property
    def outcome(self) -> str:
        """``committed``, ``rolled-back``, or ``plan-failed`` (no layout
        was found, so nothing was built)."""
        if self.committed:
            return "committed"
        return "rolled-back" if self.backend else "plan-failed"

    def to_dict(self) -> dict:
        return {
            "cause": self.cause,
            "packet_index": self.packet_index,
            "committed": self.committed,
            "backend": self.backend,
            "fallback": self.fallback,
            "seconds": self.seconds,
            "baseline_rate": self.baseline_rate,
            "error": self.error,
            "symbol_values": self.symbol_values,
            "solver_stats": self.solver_stats,
            "module_attribution": self.module_attribution,
            "migration": (self.migration.to_dict()
                          if self.migration is not None else None),
        }


@dataclass
class RunReport:
    """Outcome of one :meth:`ElasticRuntime.run` call."""

    packets: int = 0
    hits: int = 0
    timeline: list[float] = field(default_factory=list)   # per-window hit rate
    reconfigs: list[ReconfigRecord] = field(default_factory=list)
    final_symbols: dict[str, int] = field(default_factory=dict)
    #: structured SLO violations raised during the run (see
    #: :mod:`repro.obs.slo`)
    slo_violations: list[dict] = field(default_factory=list)

    @property
    def module_attribution(self) -> dict:
        """Per-module attribution of the last committed reconfiguration
        (empty for string-composed sources)."""
        committed = [r for r in self.reconfigs if r.committed]
        return committed[-1].module_attribution if committed else {}

    @property
    def hit_rate(self) -> float:
        return self.hits / self.packets if self.packets else 0.0

    def steady_rate(self, windows: int = 5) -> float:
        tail = self.timeline[-windows:]
        return sum(tail) / len(tail) if tail else 0.0

    def recovery_ratio(self, windows: int = 5) -> float:
        """Post-swap steady hit rate relative to the last committed
        reconfiguration's pre-swap baseline (1.0 = full recovery;
        >1.0 = better than before)."""
        committed = [r for r in self.reconfigs if r.committed]
        if not committed or committed[-1].baseline_rate <= 0.0:
            return 1.0
        return self.steady_rate(windows) / committed[-1].baseline_rate

    def format(self) -> str:
        lines = [
            f"processed {self.packets} packets, overall hit rate "
            f"{self.hit_rate:.3f}",
            f"final layout: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.final_symbols.items())),
        ]
        for r in self.reconfigs:
            outcome = "committed" if r.committed else f"ROLLED BACK ({r.error})"
            extra = ""
            if r.migration is not None:
                extra = (f", migrated {r.migration.kv_migrated}/"
                         f"{r.migration.kv_entries_old} cache entries "
                         f"(loss {r.migration.kv_loss_fraction:.2f})")
            lines.append(
                f"  reconfig @pkt {r.packet_index} [{r.cause}] via "
                f"{r.backend or 'none'}"
                f"{' (greedy fallback)' if r.fallback else ''} "
                f"in {r.seconds:.2f}s — {outcome}{extra}"
            )
        committed = [r for r in self.reconfigs if r.committed]
        if committed:
            lines.append(
                f"  pre-swap steady rate {committed[-1].baseline_rate:.3f}, "
                f"post-swap steady rate {self.steady_rate():.3f} "
                f"(recovery {self.recovery_ratio():.2f}x)"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "packets": self.packets,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
            "timeline": self.timeline,
            "final_symbols": self.final_symbols,
            "recovery_ratio": self.recovery_ratio(),
            "module_attribution": self.module_attribution,
            "slo_violations": list(self.slo_violations),
            "reconfigs": [r.to_dict() for r in self.reconfigs],
        }


def hot_swap(ctl, old: NetCacheApp | None, plan: PlanResult | PlanError,
             cause: str, started: float, switch: str | None = None,
             baseline_rate: float = 0.0,
             ) -> tuple[ReconfigRecord, NetCacheApp | None]:
    """The one hot swap, run by :class:`ElasticRuntime` and, per switch,
    by the fleet's :class:`~repro.fabric.FleetController`.

    ``plan`` is the planner's result — or the :class:`PlanError` it
    raised, which is recorded and counted like any other failed swap.
    From a plan: build the app, migrate ``old``'s state onto it
    (:meth:`~repro.apps.netcache.NetCacheApp.migrate_to`; ``old=None``
    starts it cold), re-validate the artifact under the controller's
    layout options and canary it. ``ctl`` is the calling controller,
    read for ``source``, ``config``, ``options``, ``telemetry``, ``slo``
    and ``packets_processed``; ``record.seconds`` counts from
    ``started``; ``switch`` names the fleet's switch on every event and
    is the SLO subject (the runtime's is the cause).

    Returns ``(record, app)``: ``app`` is the validated candidate the
    caller installs, or None when the swap did not commit — the serving
    app is never touched.
    """
    where = {"switch": switch} if switch is not None else {}
    record = ReconfigRecord(cause=cause, packet_index=ctl.packets_processed,
                            committed=False, baseline_rate=baseline_rate)
    app = None
    if isinstance(plan, PlanError):
        record.error = str(plan)
    else:
        record.backend = plan.backend
        record.fallback = plan.fallback
        record.symbol_values = dict(plan.compiled.symbol_values)
        record.solver_stats = dict(plan.solver_stats)
        record.module_attribution = dict(plan.module_attribution)
        try:
            app = build_app(ctl.source, plan.compiled, ctl.config)
            if old is not None:
                with trace.span("runtime.migrate") as span:
                    record.migration = old.migrate_to(app)
                    span.set_attrs(
                        kv_migrated=record.migration.kv_migrated,
                        kv_entries_old=record.migration.kv_entries_old,
                        kv_loss_fraction=record.migration.kv_loss_fraction,
                    )
                ctl.telemetry.emit("migration",
                                   packet_index=ctl.packets_processed,
                                   **where, **record.migration.to_dict())
            with trace.span("runtime.validate_swap"):
                layout = ctl.options.layout
                validate_layout(app.compiled,
                                hash_unit_limits=layout.hash_unit_limits,
                                table_memory=layout.table_memory)
                app.canary()
            record.committed = True
        except Exception as exc:  # roll back on *any* pre-commit failure
            record.error = str(exc)
            app = None
    record.seconds = time.perf_counter() - started
    if record.committed:
        stats = plan.compiled.stats
        ctl.telemetry.emit(
            "swap_committed",
            packet_index=ctl.packets_processed,
            **where,
            cause=cause,
            backend=plan.backend,
            fallback=plan.fallback,
            seconds=record.seconds,
            plan_seconds=plan.plan_seconds,
            parse_seconds=stats.parse_seconds,
            analysis_seconds=stats.analysis_seconds,
            ilp_build_seconds=stats.ilp_build_seconds,
            ilp_solve_seconds=stats.ilp_solve_seconds,
            codegen_seconds=stats.codegen_seconds,
            solver_stats=dict(plan.solver_stats),
            symbols=dict(plan.compiled.symbol_values),
            kv_loss=(record.migration.kv_loss_fraction
                     if record.migration is not None else None),
        )
    else:
        ctl.telemetry.emit(
            "rollback" if record.backend else "reconfig_failed",
            packet_index=ctl.packets_processed,
            **where,
            cause=cause,
            error=record.error,
        )
    obs_metrics.counter(
        "p4all_reconfigs_total",
        help="Reconfiguration cycles, by trigger cause and outcome.",
        labels=("cause", "outcome"),
    ).inc(cause=cause, outcome=record.outcome)
    obs_metrics.histogram(
        "p4all_reconfig_seconds",
        help="End-to-end wall time of one reconfiguration cycle.",
    ).observe(record.seconds)
    ctl.slo.observe("reconfig_seconds", switch or cause, record.seconds,
                    packet_index=ctl.packets_processed)
    return record, app


class ElasticRuntime:
    """Live NetCache pipeline with online reconfiguration."""

    def __init__(
        self,
        target: TargetSpec,
        source=None,
        utility: str = NETCACHE_UTILITY,
        options: CompileOptions | None = None,
        config: RuntimeConfig | None = None,
        telemetry: TelemetryBus | None = None,
        planner: ReconfigPlanner | None = None,
    ):
        self.config = config or RuntimeConfig()
        # Explicit None-checks: an empty TelemetryBus is falsy (len 0).
        self.telemetry = telemetry if telemetry is not None else TelemetryBus()
        # Mirror telemetry events into the active trace/metrics so a
        # traced run interleaves control-plane events with spans.
        bridge_telemetry(self.telemetry)
        # The runtime's control loop needs register-level access to both
        # structures, so it drives the library NetCache composition
        # (routing omitted: the runtime exercises the cache path). The
        # default goes through the module linker so every reconfig
        # carries per-module resource attribution; a plain source string
        # is still accepted.
        self.source = source or netcache_linked(
            utility=utility, with_routing=False
        )
        self.planner = planner if planner is not None else ReconfigPlanner(
            options=options, telemetry=self.telemetry
        )
        self.options = self.planner.options
        self.monitor = TrafficMonitor(
            baseline_windows=self.config.baseline_windows,
            drop_threshold=self.config.drop_threshold,
            warmup_windows=self.config.warmup_windows,
        )
        self.target = target
        self.packets_processed = 0
        self.total_hits = 0
        self._pending_target: TargetSpec | None = None
        self._scheduled: list[tuple[int, TargetSpec]] = []
        self._last_reconfig_window = -(10 ** 9)
        #: Per-tenant SLO monitoring. Subjects are the linked modules
        #: ("cms", "kv" for the default NetCache pair) or "app" for
        #: string-composed sources.
        self.slo = SloMonitor(rules=self.config.slo_rules,
                              telemetry=self.telemetry)

        with trace.span("runtime.init", target=target.name) as span:
            plan = self.planner.plan(self.source, target, cause="initial")
            self.app = build_app(self.source, plan.compiled, self.config)
            span.set_attrs(backend=plan.backend, fallback=plan.fallback)
        self.telemetry.emit(
            "configured",
            packet_index=0,
            backend=plan.backend,
            fallback=plan.fallback,
            symbols=dict(plan.compiled.symbol_values),
        )

    # -- construction ----------------------------------------------------------
    @property
    def source_text(self) -> str:
        """The P4All source text regardless of how it was composed."""
        return _source_text(self.source)

    @property
    def tenants(self) -> list[str]:
        """SLO subjects: the linked modules, or ``"app"`` when the
        source is a plain string with no module identity."""
        names = getattr(self.source, "module_names", None)
        return list(names) if names else ["app"]

    # -- operator interface ----------------------------------------------------
    def set_target(self, target: TargetSpec) -> None:
        """Request re-provisioning; applied at the next window boundary."""
        self._pending_target = target
        self.telemetry.emit(
            "target_change_requested",
            packet_index=self.packets_processed,
            target=target.name,
            memory_bits_per_stage=target.memory_bits_per_stage,
            stages=target.stages,
        )

    def schedule_target_change(self, at_packet: int, target: TargetSpec) -> None:
        """Arrange for :meth:`set_target` once ``at_packet`` packets have
        been processed (the eval/CLI mid-run memory-cut scenario)."""
        self._scheduled.append((at_packet, target))
        self._scheduled.sort(key=lambda item: item[0])

    # -- reconfiguration cycle -------------------------------------------------
    def reconfigure(self, cause: str) -> ReconfigRecord:
        """Plan → :func:`hot_swap` (build → migrate → validate → swap, or
        roll back). ``record.seconds`` includes the plan."""
        started = time.perf_counter()
        target = self._pending_target or self.target
        self._pending_target = None
        with trace.span("runtime.reconfigure", cause=cause,
                        packet_index=self.packets_processed) as span:
            baseline = self.monitor.steady_rate()
            self.telemetry.emit(
                "reconfig_triggered",
                packet_index=self.packets_processed,
                cause=cause,
                baseline_rate=baseline,
                target=target.name,
                memory_bits_per_stage=target.memory_bits_per_stage,
            )
            try:
                plan = self.planner.plan(self.source, target, cause=cause)
            except PlanError as exc:
                plan = exc
            record, app = hot_swap(
                self, self.app if self.config.migrate_state else None, plan,
                cause, started, baseline_rate=baseline)
            if app is not None:
                self.app, self.target = app, target
                self.monitor.reset_baseline()
            span.set_attrs(committed=record.committed, backend=record.backend,
                           fallback=record.fallback, error=record.error)
        if record.committed and record.module_attribution:
            # Headroom of each tenant's weighted utility over its
            # declared floor: the ILP promised >= 0; tell the SLO
            # monitor what the committed layout actually delivers.
            floors = getattr(self.source, "floors", None) or {}
            for module, attrib in record.module_attribution.items():
                if module == "(app)":
                    continue
                headroom = (attrib.get("utility", 0.0)
                            - floors.get(module, 0.0))
                self.slo.observe("utility_headroom", module, headroom,
                                 packet_index=self.packets_processed)
        return record

    # -- the control loop ------------------------------------------------------
    def run(self, stream, packets: int, report: RunReport | None = None) -> RunReport:
        """Drive ``packets`` keys from ``stream`` (anything with a
        ``sample(count)`` method) through the pipeline, reconfiguring as
        triggers fire. Passing an existing ``report`` continues it."""
        report = report or RunReport()
        end = self.packets_processed + packets
        with trace.span("runtime.run", packets=packets) as run_span:
            while self.packets_processed < end:
                # Apply scheduled provisioning changes that have come due.
                while (self._scheduled
                       and self._scheduled[0][0] <= self.packets_processed):
                    _at, target = self._scheduled.pop(0)
                    self.set_target(target)

                window_index = self.monitor.windows_recorded
                if self._pending_target is not None:
                    report.reconfigs.append(self.reconfigure("target-change"))
                    self._last_reconfig_window = window_index
                elif (
                    self.config.drift_reconfig
                    and self.monitor.drift_detected()
                    and window_index - self._last_reconfig_window
                        >= self.config.cooldown_windows
                ):
                    report.reconfigs.append(self.reconfigure("hit-rate-drop"))
                    self._last_reconfig_window = window_index

                n = min(self.config.window_packets, end - self.packets_processed)
                with trace.span("runtime.window") as wspan:
                    keys = stream.sample(n)
                    stats = self.app.run_trace(
                        keys, serve_batch=self.config.serve_batch)
                    self.packets_processed += n
                    self.total_hits += stats.hits
                    report.packets += n
                    report.hits += stats.hits
                    sample = self.monitor.record(stats.hits, n)
                    report.timeline.append(sample.hit_rate)
                    wspan.set_attrs(window=sample.index, packets=n,
                                    hit_rate=sample.hit_rate)
                obs_metrics.counter(
                    "p4all_windows_total",
                    help="Monitoring windows completed by the control loop.",
                ).inc()
                obs_metrics.gauge(
                    "p4all_window_hit_rate",
                    help="Hit rate of the most recent monitoring window.",
                ).set(sample.hit_rate)
                self.telemetry.emit(
                    "window",
                    packet_index=self.packets_processed,
                    window=sample.index,
                    hit_rate=sample.hit_rate,
                    occupancy=self.app.occupancy(),
                )
                for tenant in self.tenants:
                    self.slo.observe("hit_rate", tenant, sample.hit_rate,
                                     packet_index=self.packets_processed)
            run_span.set_attrs(hit_rate=report.hit_rate,
                               reconfigs=len(report.reconfigs))
        report.final_symbols = dict(self.app.compiled.symbol_values)
        report.slo_violations = list(self.slo.violations)
        return report
