"""The elastic control loop: shard, watch, recompile, migrate.

:class:`FleetController` is the one control loop. It installs one
elastic P4All program on every serving switch of a
:class:`~repro.fabric.topology.FabricTopology` (each compiled for that
switch's target), shards a live key stream across them with a
consistent-hash ring, and keeps every switch configured; the
single-switch :class:`~repro.runtime.ElasticRuntime` is this loop over
``FabricTopology.flat(1, target)``. Triggers, per switch:

* **resource cut** (:meth:`~FleetController.schedule_cut`) — only that
  switch replans and swaps; the rest of the fleet keeps serving;
* **hit-rate drift** — the switch's :class:`~repro.runtime.monitor.
  TrafficMonitor` sees its window hit rate fall below its steady
  baseline, and the switch replans for its current target;
* **hot-spot skew** — virtual-node arcs move from the hottest to the
  coldest switch, the moved-key fraction bounded by
  ``max_move_fraction``;
* **live migration** (:meth:`~FleetController.migrate`, see
  :mod:`repro.fabric.migration`) — a switch's state and shard move to
  another switch.

Every reconfiguration takes one path, :meth:`~FleetController.
cut_switch`: plan (:mod:`repro.runtime.planner`) → build →
``migrate_to`` → ``validate_layout`` + canary → commit, or roll back to
the still-serving app. All switches plan through one
:class:`~repro.runtime.planner.ReconfigPlanner` and its compile cache,
so the N-th identical (source, target) plan is a layout-cache hit.

Switches that run one layout keep their registers as banks of one
:class:`~repro.pisa.RegisterBanks` set, so a window serves each set's
switches in one vector batch per sub-batch (:func:`~repro.apps.netcache.
serve`).

Throughput is accounted two ways: ``busy`` (total simulation CPU time)
and ``makespan`` (per-window maximum across switches, the wall time of
a fabric of independent switches; the simulator serves them serially,
so makespan figures are a model, not a measurement). A set's kernel
call is shared out over its switches by lanes, so ``busy`` too is a
model below the window.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..apps.netcache import NetCacheApp, netcache_linked, serve
from ..core import CompileOptions, validate_layout
from ..core.cache import CompileCache
from ..obs import bridge_fleet_report
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..obs.slo import SloMonitor
from ..pisa import RegisterBanks
from ..pisa.resources import TargetSpec
from ..runtime.migrate import MigrationReport
from ..runtime.monitor import TrafficMonitor
from ..runtime.planner import PlanError, PlanResult, ReconfigPlanner
from ..runtime.telemetry import TelemetryBus
from . import migration as fabric_migration
from .shard import HashRing
from .topology import FabricTopology

__all__ = ["FleetConfig", "ReconfigRecord", "FleetWindow", "SwitchStats",
           "FleetReport", "FleetController"]

#: Minimum controller windows between a switch's reconfiguration and
#: its next drift reconfiguration.
DRIFT_COOLDOWN_WINDOWS = 10


@dataclass(frozen=True)
class FleetConfig:
    """Control-loop knobs (``RuntimeConfig`` is this type)."""

    window_packets: int = 2000       # sharding/monitoring window size
    vnodes: int = 64                 # virtual nodes per switch on the ring
    hot_threshold: int = 4           # NetCache promotion threshold
    skew_threshold: float = 0.0      # max/mean window share arming a
                                     # rebalance (0 disables)
    max_move_fraction: float = 0.2   # moved-key bound per rebalance
    rebalance_cooldown: int = 5      # min windows between rebalances
    drop_threshold: float = 0.25     # relative hit-rate drop that means drift
    baseline_windows: int = 5        # windows forming the steady baseline
    warmup_windows: int = 4          # windows ignored after start/swap
    drift_reconfig: bool = True      # arm the drift trigger at all
    migrate_state: bool = True       # migrate the app's state on swap
    engine: str | None = None        # pipeline engine (None = default)
    serve_batch: int | None = None   # serve sub-batch size; results
                                     # do not depend on it (0 = the
                                     # per-packet reference serve)
    slo_rules: tuple | None = None   # SLO rules (None = defaults, see
                                     # repro.obs.slo.default_slo_rules)


def _source_text(source) -> str:
    return source if isinstance(source, str) else source.source


def build_app(source, compiled, config: FleetConfig,
              banks: RegisterBanks | None = None, bank: int = 0
              ) -> NetCacheApp:
    """The app installed for a planned artifact: ``source`` is a P4All
    string or a linked program; ``banks``/``bank`` its registers' bank
    (default: a set of its own)."""
    return NetCacheApp(
        compiled.target,
        hot_threshold=config.hot_threshold,
        source=_source_text(source),
        compiled=compiled,
        engine=config.engine,
        banks=banks,
        bank=bank,
    )


def _bank_sets(plans: dict[str, PlanResult]) -> list[list[str]]:
    """The switches of ``plans`` grouped into register bank sets: one per
    layout — the same target, symbol values and emitted P4 source — in
    first-seen order. A layout that applies a match-action table is
    never banked: each switch owns its table entries."""
    sets: list[tuple[tuple | None, list[str]]] = []
    for name, plan in plans.items():
        compiled = plan.compiled
        if any(unit.instance.table is not None for unit in compiled.units):
            sets.append((None, [name]))
            continue
        layout = (compiled.target, compiled.symbol_values,
                  compiled.p4_source)
        for key, names in sets:
            if key == layout:
                names.append(name)
                break
        else:
            sets.append((layout, [name]))
    return [names for _key, names in sets]


@dataclass
class ReconfigRecord:
    """One reconfiguration cycle of one switch, committed or rolled back."""

    cause: str
    packet_index: int
    committed: bool
    backend: str = ""
    fallback: bool = False
    #: wall time from the start of the plan to commit or rollback
    seconds: float = 0.0
    baseline_rate: float = 0.0
    migration: MigrationReport | None = None
    error: str = ""
    symbol_values: dict[str, int] = field(default_factory=dict)
    #: solver/cache observability from the planner (nodes explored,
    #: incumbent source, cache hit/miss counters)
    solver_stats: dict = field(default_factory=dict)
    #: per-module stage/memory/ALU/utility attribution (module name →
    #: flat dict), populated when the source is a LinkedProgram
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
class FleetWindow:
    """One sharded window across the fleet."""

    #: controller-lifetime window index
    index: int
    packets: int
    hits: int
    makespan_seconds: float
    busy_seconds: float
    per_switch: dict[str, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.packets if self.packets else 0.0


@dataclass
class SwitchStats:
    """Cumulative per-switch serving statistics."""

    packets: int = 0
    hits: int = 0
    busy_seconds: float = 0.0
    windows: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.packets if self.packets else 0.0

    def to_dict(self) -> dict:
        return {"packets": self.packets, "hits": self.hits,
                "hit_rate": self.hit_rate,
                "busy_seconds": self.busy_seconds, "windows": self.windows}


@dataclass
class FleetReport:
    """Outcome of one :meth:`FleetController.run` call."""

    packets: int = 0
    hits: int = 0
    dropped_packets: int = 0
    windows: list[FleetWindow] = field(default_factory=list)
    per_switch: dict[str, SwitchStats] = field(default_factory=dict)
    #: ``(switch, record)`` for every reconfiguration cycle
    reconfigs: list[tuple[str, ReconfigRecord]] = field(default_factory=list)
    migrations: list = field(default_factory=list)
    rebalances: list[dict] = field(default_factory=list)
    final_symbols: dict[str, dict[str, int]] = field(default_factory=dict)
    slo_violations: list[dict] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.packets if self.packets else 0.0

    @property
    def timeline(self) -> list[float]:
        return [w.hit_rate for w in self.windows]

    @property
    def busy_seconds(self) -> float:
        return sum(w.busy_seconds for w in self.windows)

    @property
    def makespan_seconds(self) -> float:
        return sum(w.makespan_seconds for w in self.windows)

    @property
    def aggregate_pkts_per_sec(self) -> float:
        """Modeled fabric throughput: switches are independent hardware,
        so a window's wall time is its slowest switch (makespan)."""
        span = self.makespan_seconds
        return self.packets / span if span > 0 else 0.0

    @property
    def serial_pkts_per_sec(self) -> float:
        """Throughput ignoring fabric parallelism (total busy time)."""
        busy = self.busy_seconds
        return self.packets / busy if busy > 0 else 0.0

    def steady_rate(self, last: int = 5, before: int | None = None) -> float:
        """Mean fleet hit rate of the ``last`` windows ending at window
        ``before`` (exclusive; default: the end of the run)."""
        rates = self.timeline[:before] if before is not None else self.timeline
        tail = rates[-last:]
        return sum(tail) / len(tail) if tail else 0.0

    def format(self) -> str:
        lines = [
            f"fleet processed {self.packets} packets over "
            f"{len(self.per_switch)} switches, hit rate {self.hit_rate:.3f}"
            + (f", {self.dropped_packets} dropped" if self.dropped_packets
               else ""),
            f"  throughput: {self.aggregate_pkts_per_sec:,.0f} pkt/s "
            f"aggregate (makespan-modeled), "
            f"{self.serial_pkts_per_sec:,.0f} pkt/s serial",
        ]
        for name, stats in sorted(self.per_switch.items()):
            lines.append(
                f"  {name}: {stats.packets} pkts, hit rate "
                f"{stats.hit_rate:.3f}, busy {stats.busy_seconds:.2f}s"
            )
        for name, record in self.reconfigs:
            outcome = ("committed" if record.committed
                       else f"ROLLED BACK ({record.error})")
            lines.append(
                f"  reconfig[{name}] @pkt {record.packet_index} "
                f"[{record.cause}] via {record.backend or 'none'} "
                f"in {record.seconds:.2f}s — {outcome}"
            )
        for mig in self.migrations:
            lines.append("  " + mig.summary())
        for reb in self.rebalances:
            lines.append(
                f"  rebalance @window {reb['window']}: moved "
                f"{reb['moved_fraction']:.3f} of keyspace "
                f"({reb['src']} → {reb['dst']})"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "packets": self.packets,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
            "dropped_packets": self.dropped_packets,
            "aggregate_pkts_per_sec": self.aggregate_pkts_per_sec,
            "serial_pkts_per_sec": self.serial_pkts_per_sec,
            "busy_seconds": self.busy_seconds,
            "makespan_seconds": self.makespan_seconds,
            "timeline": self.timeline,
            "per_switch": {n: s.to_dict() for n, s in self.per_switch.items()},
            "final_symbols": self.final_symbols,
            "reconfigs": [{"switch": name, **r.to_dict()}
                          for name, r in self.reconfigs],
            "migrations": [m.to_dict() for m in self.migrations],
            "rebalances": self.rebalances,
            "slo_violations": list(self.slo_violations),
        }


class FleetController:
    """Elastic control plane for a fabric of one or more switches."""

    def __init__(
        self,
        topology: FabricTopology,
        source=None,
        options: CompileOptions | None = None,
        config: FleetConfig | None = None,
        telemetry: TelemetryBus | None = None,
        cache: CompileCache | None = None,
        planner: ReconfigPlanner | None = None,
    ):
        self.topology = topology
        self.config = config or FleetConfig()
        # Explicit None-checks: an empty TelemetryBus is falsy (len 0).
        self.telemetry = telemetry if telemetry is not None else TelemetryBus()
        #: The one planner every switch plans through; a given planner
        #: brings its own options and cache.
        self.planner = planner if planner is not None else ReconfigPlanner(
            options=options, telemetry=self.telemetry, cache=cache)
        self.options = self.planner.options
        self.cache = self.planner.cache
        self.source = source or netcache_linked(with_routing=False)
        serving = topology.serving()
        if not serving:
            raise ValueError("topology has no serving switches")
        self.ring = HashRing(serving, vnodes=self.config.vnodes)
        self.packets_processed = 0
        #: windows served over the controller's lifetime; the clock of
        #: every cooldown and of the window event
        self.windows = 0
        self.monitors: defaultdict[str, TrafficMonitor] = defaultdict(
            lambda: TrafficMonitor(
                baseline_windows=self.config.baseline_windows,
                drop_threshold=self.config.drop_threshold,
                warmup_windows=self.config.warmup_windows,
            ))
        self._last_reconfig_window: dict[str, int] = {}
        self._last_rebalance_window = -(10 ** 9)
        self._scheduled_cuts: list[tuple[int, str, TargetSpec]] = []
        self._scheduled_migrations: list[tuple[int, str, str]] = []
        self._installed = False
        #: SLO monitoring: hit rate and reconfiguration time per switch,
        #: utility headroom per linked module.
        self.slo = SloMonitor(self.telemetry, rules=self.config.slo_rules)

    # -- construction -----------------------------------------------------------
    @property
    def source_text(self) -> str:
        """The P4All source text regardless of how it was composed."""
        return _source_text(self.source)

    def _installable(self) -> list[str]:
        """Switches that host an app: serving plus warm standbys."""
        return [name for name, node in self.topology.switches.items()
                if node.serving or node.role == "standby"]

    def install_all(self) -> dict[str, PlanResult]:
        """Compile and install the program on every serving/standby
        switch, one after another; returns per-switch plan results.

        Every switch after the first with the same target is a
        layout-cache hit, so fleet boot costs one real solve per
        distinct target. Switches with equal layouts are banks of one
        register bank set (see :func:`_bank_sets`), served together.
        """
        names = self._installable()
        started = time.perf_counter()
        plans: dict[str, PlanResult] = {}
        with trace.span("fleet.install", switches=len(names)):
            for name in names:
                plans[name] = self.planner.plan(
                    self.source, self.topology.node(name).target,
                    cause="initial")
            for members in _bank_sets(plans):
                banks = RegisterBanks(len(members))
                for bank, name in enumerate(members):
                    self.topology.node(name).app = build_app(
                        self.source, plans[name].compiled, self.config,
                        banks, bank)
        self._installed = True
        self.telemetry.emit(
            "configured",
            packet_index=0,
            seconds=time.perf_counter() - started,
            cache=self.cache.snapshot(),
            switches={name: {"backend": plan.backend,
                             "fallback": plan.fallback,
                             "symbols": dict(plan.compiled.symbol_values)}
                      for name, plan in plans.items()},
        )
        return plans

    # -- operator interface ------------------------------------------------------
    def schedule_cut(self, at_packet: int, switch: str,
                     target: TargetSpec) -> None:
        """Re-provision one switch once ``at_packet`` packets have been
        served fleet-wide (applied at the next window boundary)."""
        self.topology.node(switch)
        self._scheduled_cuts.append((at_packet, switch, target))
        self._scheduled_cuts.sort(key=lambda item: item[0])

    def schedule_migration(self, at_packet: int, src: str, dst: str) -> None:
        """Arrange a live migration mid-run. ``src`` may be the literal
        ``"hottest"`` — resolved, when due, to the switch that served
        the most packets so far."""
        if src != "hottest":
            self.topology.node(src)
        self.topology.node(dst)
        self._scheduled_migrations.append((at_packet, src, dst))
        self._scheduled_migrations.sort(key=lambda item: item[0])

    # -- reconfiguration ---------------------------------------------------------
    def cut_switch(self, switch: str, target: TargetSpec,
                   cause: str = "target-change") -> ReconfigRecord:
        """The one reconfiguration path, for one switch: plan → build →
        migrate the serving app's state onto the candidate → validate
        the artifact and canary the app → commit, or roll back.

        ``record.seconds`` counts from the start of the plan. A plan
        that fails (:class:`~repro.runtime.planner.PlanError`) or a
        candidate that fails any pre-commit step leaves the serving app
        untouched.
        """
        started = time.perf_counter()
        node = self.topology.node(switch)
        monitor = self.monitors[switch]
        where = dict(packet_index=self.packets_processed, switch=switch)
        record = ReconfigRecord(cause=cause,
                                packet_index=self.packets_processed,
                                committed=False,
                                baseline_rate=monitor.steady_rate())
        self._last_reconfig_window[switch] = self.windows
        with trace.span("fleet.reconfigure", switch=switch, cause=cause,
                        packet_index=self.packets_processed) as span:
            self.telemetry.emit(
                "reconfig_triggered", **where, cause=cause,
                baseline_rate=record.baseline_rate, target=target.name,
                memory_bits_per_stage=target.memory_bits_per_stage)
            try:
                plan = self.planner.plan(self.source, target, cause=cause)
            except PlanError as exc:
                record.error = str(exc)
            else:
                app = self._candidate(switch, plan, record)
                if app is not None:
                    node.app, node.target = app, target
                    record.committed = True
            record.seconds = time.perf_counter() - started
            if record.committed:
                monitor.reset_baseline()
                stats = plan.compiled.stats
                self.telemetry.emit(
                    "swap_committed", **where,
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
                self.telemetry.emit(
                    "rollback" if record.backend else "reconfig_failed",
                    **where, cause=cause, error=record.error)
            span.set_attrs(committed=record.committed, backend=record.backend,
                           fallback=record.fallback, error=record.error)
        obs_metrics.counter(
            "p4all_reconfigs_total",
            help="Reconfiguration cycles, by switch, trigger cause and "
                 "outcome.",
            labels=("switch", "cause", "outcome"),
        ).inc(switch=switch, cause=cause, outcome=record.outcome)
        obs_metrics.histogram(
            "p4all_reconfig_seconds",
            help="End-to-end wall time of one reconfiguration cycle.",
        ).observe(record.seconds)
        self.slo.observe("reconfig_seconds", switch, record.seconds,
                         packet_index=self.packets_processed)
        if record.committed:
            # Headroom of each tenant's weighted utility over its
            # declared floor: the ILP promised >= 0; tell the SLO
            # monitor what the committed layout actually delivers.
            floors = getattr(self.source, "floors", None) or {}
            for module, attrib in record.module_attribution.items():
                if module != "(app)":
                    self.slo.observe(
                        "utility_headroom", module,
                        attrib.get("utility", 0.0) - floors.get(module, 0.0),
                        packet_index=self.packets_processed)
        return record

    def _candidate(self, switch: str, plan: PlanResult,
                   record: ReconfigRecord) -> NetCacheApp | None:
        """Build the planned app, migrate the serving app's state onto
        it, validate the artifact and canary the app. Returns the
        candidate, or None (with ``record.error``) when any step fails;
        the serving app is never mutated."""
        old = self.topology.node(switch).app
        record.backend = plan.backend
        record.fallback = plan.fallback
        record.symbol_values = dict(plan.compiled.symbol_values)
        record.solver_stats = dict(plan.solver_stats)
        record.module_attribution = dict(plan.module_attribution)
        try:
            app = build_app(self.source, plan.compiled, self.config)
            if old is not None and self.config.migrate_state:
                with trace.span("fleet.reconfigure.migrate") as span:
                    record.migration = old.migrate_to(app)
                    span.set_attrs(
                        kv_migrated=record.migration.kv_migrated,
                        kv_entries_old=record.migration.kv_entries_old,
                        kv_loss_fraction=record.migration.kv_loss_fraction,
                    )
                self.telemetry.emit("migration",
                                    packet_index=self.packets_processed,
                                    switch=switch,
                                    **record.migration.to_dict())
            with trace.span("fleet.reconfigure.validate"):
                layout = self.options.layout
                validate_layout(app.compiled,
                                hash_unit_limits=layout.hash_unit_limits,
                                table_memory=layout.table_memory)
                app.canary()
        except Exception as exc:  # roll back on *any* pre-commit failure
            record.error = str(exc)
            return None
        return app

    def recompile_all(self, targets: dict[str, TargetSpec] | TargetSpec,
                      cause: str = "fleet-recompile",
                      ) -> dict[str, ReconfigRecord]:
        """Reconfigure a set of switches, one after another.

        ``targets`` is either one spec applied to every serving switch
        or a per-switch dict. Each switch takes :meth:`cut_switch` on
        its own: a switch whose plan or swap fails keeps serving while
        the others still swap.
        """
        if isinstance(targets, TargetSpec):
            targets = dict.fromkeys(self.topology.serving(), targets)
        return {name: self.cut_switch(name, target, cause=cause)
                for name, target in targets.items()}

    # -- migration ---------------------------------------------------------------
    def migrate(self, src: str, dst: str, cause: str = "migration",
                downtime_packets: int = 0, replay=None):
        """Live-migrate the app (state + shard) from ``src`` to ``dst``.

        See :func:`repro.fabric.migration.migrate_node` for the
        protocol. ``downtime_packets`` is the in-flight buffer length
        when the run loop fires the migration mid-stream (``replay``
        drains it onto the surviving owner); a direct call has no
        in-flight traffic, so both default to none.
        """
        return fabric_migration.migrate_node(
            self, src, dst, cause=cause,
            downtime_packets=downtime_packets, replay=replay,
        )

    def _resolve_hottest(self, report: FleetReport) -> str:
        served = [(stats.packets, name)
                  for name, stats in report.per_switch.items()
                  if name in self.ring.names]
        return max(served)[1] if served else self.ring.names[0]

    # -- the control loop --------------------------------------------------------
    def run(self, stream, packets: int,
            report: FleetReport | None = None) -> FleetReport:
        """Shard ``packets`` keys from ``stream`` (anything with a
        ``sample(count)`` method) across the fleet, window by window,
        firing scheduled cuts, drift reconfigs, migrations and skew
        rebalances as they come due. Passing a ``report`` continues it."""
        if not self._installed:
            self.install_all()
        report = report or FleetReport()
        for name in self._installable():
            report.per_switch.setdefault(name, SwitchStats())
        end = self.packets_processed + packets
        with trace.span("fleet.run", packets=packets) as run_span:
            while self.packets_processed < end:
                reconfigured = self._apply_due_cuts(report)
                if self.config.drift_reconfig:
                    self._reconfigure_drifted(report, reconfigured)
                n = min(self.config.window_packets,
                        end - self.packets_processed)
                keys = np.asarray(stream.sample(n))
                migration_due = self._pop_due_migration(report)
                self._window(keys, report, migration_due)
            report.packets = sum(
                s.packets for s in report.per_switch.values())
            report.hits = sum(s.hits for s in report.per_switch.values())
            report.slo_violations = list(self.slo.violations)
            run_span.set_attrs(hit_rate=report.hit_rate,
                               windows=len(report.windows),
                               reconfigs=len(report.reconfigs))
            # Mirror the fleet outcome into the still-open fleet.run
            # span (and the flight recorder) the way telemetry already
            # lands in the span tree.
            bridge_fleet_report(report)
        for name in self.ring.names:
            report.final_symbols[name] = dict(
                self.topology.node(name).app.compiled.symbol_values)
        return report

    def _apply_due_cuts(self, report: FleetReport) -> set[str]:
        """Fire every cut that has come due; returns the cut switches."""
        cut = set()
        while (self._scheduled_cuts
               and self._scheduled_cuts[0][0] <= self.packets_processed):
            _at, name, target = self._scheduled_cuts.pop(0)
            self.telemetry.emit(
                "target_change_requested",
                packet_index=self.packets_processed,
                switch=name, target=target.name,
                memory_bits_per_stage=target.memory_bits_per_stage,
                stages=target.stages,
            )
            report.reconfigs.append((name, self.cut_switch(name, target)))
            cut.add(name)
        return cut

    def _reconfigure_drifted(self, report: FleetReport,
                             reconfigured: set[str]) -> None:
        """Replan, for its current target, every serving switch whose
        monitor signals drift — unless it was reconfigured at this
        boundary or within ``DRIFT_COOLDOWN_WINDOWS``."""
        for name in self.ring.names:
            last = self._last_reconfig_window.get(name, -(10 ** 9))
            if (name in reconfigured
                    or self.windows - last < DRIFT_COOLDOWN_WINDOWS
                    or not self.monitors[name].drift_detected()):
                continue
            target = self.topology.node(name).target
            report.reconfigs.append(
                (name, self.cut_switch(name, target, cause="hit-rate-drop")))

    def _pop_due_migration(self, report: FleetReport):
        if (self._scheduled_migrations
                and self._scheduled_migrations[0][0]
                <= self.packets_processed):
            _at, src, dst = self._scheduled_migrations.pop(0)
            if src == "hottest":
                src = self._resolve_hottest(report)
            return src, dst
        return None

    def _serve(self, shards: dict[str, np.ndarray],
               served: dict[str, tuple[int, int, float]]) -> int:
        """Serve each switch of ``shards`` its keys: one :func:`serve`
        call per register bank set, its switches in bank order. Adds
        each switch's (packets, hits, busy seconds) into ``served`` and
        returns the kernel calls made."""
        sets: dict[int, list] = {}
        for name, shard in shards.items():
            app = self.topology.node(name).app
            sets.setdefault(id(app.pipeline.banks), []).append(
                (app.pipeline.bank, name, app, shard))
        batches = 0
        for members in sets.values():
            members.sort(key=lambda member: member[0])
            stats = serve([app for _bank, _name, app, _shard in members],
                          [shard for _bank, _name, _app, shard in members],
                          self.config.serve_batch)
            for (_bank, name, _app, _shard), stat in zip(members, stats):
                pkts, hits, busy = served.get(name, (0, 0, 0.0))
                served[name] = (pkts + stat.packets, hits + stat.hits,
                                busy + stat.busy_seconds)
                batches += stat.batches
        return batches

    def _window(self, keys: np.ndarray, report: FleetReport,
                migration_due: tuple[str, str] | None) -> None:
        """Serve one window, optionally with a migration in its middle.

        When a migration is due, this window models the drain: keys
        owned by the moving shard are buffered at the ingress while the
        rest of the fleet serves normally, the state moves, the ring
        shifts, and the buffer replays onto the destination. The
        buffered count is the migration's downtime in packets.

        A switch's ``busy`` is a model: its lanes' share of each kernel
        call of its bank set plus its own replay time (see
        :func:`~repro.apps.netcache.serve`).
        """
        index = self.windows
        shards = self.ring.shard(keys)
        served: dict[str, tuple[int, int, float]] = {}
        buffered = np.empty(0, dtype=keys.dtype)
        if migration_due is not None:
            src, _dst = migration_due
            buffered = shards.pop(src, buffered)

        with trace.span("fleet.window", window=index,
                        packets=len(keys)) as span:
            batches = self._serve(shards, served)

            if migration_due is not None:
                src, dst = migration_due

                def _replay(mig) -> None:
                    # Drain the buffer onto the new owner (or back onto
                    # src after a rollback) before the migration event
                    # is emitted, so its replayed_packets is final.
                    nonlocal batches
                    if not len(buffered):
                        return
                    name = dst if mig.committed else src
                    batches += self._serve({name: buffered}, served)
                    mig.replayed_packets = len(buffered)

                mig = self.migrate(src, dst, cause="scheduled",
                                   downtime_packets=int(len(buffered)),
                                   replay=_replay)
                report.migrations.append(mig)

            window = FleetWindow(
                index=index,
                packets=sum(p for p, _h, _b in served.values()),
                hits=sum(h for _p, h, _b in served.values()),
                makespan_seconds=max(
                    (b for _p, _h, b in served.values()), default=0.0
                ),
                busy_seconds=sum(b for _p, _h, b in served.values()),
                per_switch={n: p for n, (p, _h, _b) in served.items()},
            )
            span.set_attrs(hit_rate=window.hit_rate,
                           makespan=window.makespan_seconds,
                           batches=batches)

        self.packets_processed += len(keys)
        self.windows += 1
        dropped = len(keys) - window.packets
        if dropped > 0:
            report.dropped_packets += dropped
        for name, (pkts, hits, busy) in served.items():
            stats = report.per_switch.setdefault(name, SwitchStats())
            stats.packets += pkts
            stats.hits += hits
            stats.busy_seconds += busy
            stats.windows += 1
            obs_metrics.counter(
                "p4all_fabric_packets_total",
                help="Packets served by fabric switches.",
                labels=("switch",),
            ).inc(pkts, switch=name)
            if pkts:
                self.monitors[name].record(hits, pkts)
                self.slo.observe("hit_rate", name, hits / pkts,
                                 packet_index=self.packets_processed)
        obs_metrics.counter(
            "p4all_windows_total",
            help="Monitoring windows completed by the control loop.",
        ).inc()
        obs_metrics.gauge(
            "p4all_window_hit_rate",
            help="Hit rate of the most recent monitoring window.",
        ).set(window.hit_rate)
        report.windows.append(window)
        self.telemetry.emit(
            "window",
            packet_index=self.packets_processed,
            window=index,
            hit_rate=window.hit_rate,
            per_switch=dict(window.per_switch),
            makespan_seconds=window.makespan_seconds,
            occupancy={name: self.topology.node(name).app.occupancy()
                       for name in served},
        )
        self._maybe_rebalance(window, report)

    # -- skew rebalancing --------------------------------------------------------
    def _maybe_rebalance(self, window: FleetWindow,
                         report: FleetReport) -> None:
        if self.config.skew_threshold <= 0 or len(self.ring) < 2:
            return
        if (window.index - self._last_rebalance_window
                < self.config.rebalance_cooldown):
            return
        loads = {name: window.per_switch.get(name, 0)
                 for name in self.ring.names}
        total = sum(loads.values())
        if total == 0:
            return
        mean = total / len(loads)
        hottest = max(loads, key=lambda n: (loads[n], n))
        coldest = min(loads, key=lambda n: (loads[n], n))
        if loads[hottest] < self.config.skew_threshold * mean:
            return
        # Donate enough arcs to move roughly the excess share, bounded.
        excess = (loads[hottest] - mean) / total
        fraction = min(
            excess / max(self.ring.owner_shares()[hottest], 1e-9),
            0.5,
        )
        plan = self.ring.donate(
            hottest, coldest, fraction,
            max_move_fraction=self.config.max_move_fraction,
        )
        self._last_rebalance_window = window.index
        entry = {
            "window": window.index,
            "src": hottest,
            "dst": coldest,
            "moved_fraction": plan.moved_fraction,
            "load_ratio": loads[hottest] / mean,
        }
        report.rebalances.append(entry)
        obs_metrics.histogram(
            "p4all_fabric_rebalance_moved_fraction",
            help="Keyspace fraction moved by skew rebalances.",
        ).observe(plan.moved_fraction)
        self.telemetry.emit(
            "fabric_rebalance",
            packet_index=self.packets_processed,
            **entry,
        )

    # -- teardown ----------------------------------------------------------------
    def close(self) -> None:
        """Close every installed switch's pipeline; idempotent.

        The fleet's serve never shards, so no switch holds a worker pool
        unless a caller ran ``pipeline.process_many(workers > 1)`` on it
        directly — :meth:`~repro.pisa.Pipeline.close` reaps that one.
        """
        for node in self.topology.switches.values():
            if node.app is not None and node.app.pipeline is not None:
                node.app.pipeline.close()

    def __enter__(self) -> "FleetController":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
