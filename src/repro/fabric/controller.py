"""The fleet-level elastic controller: shard, watch, recompile, migrate.

:class:`FleetController` is the fabric analogue of the single-switch
:class:`~repro.runtime.ElasticRuntime`: it installs one elastic P4All
program onto every serving switch of a :class:`~repro.fabric.topology.
FabricTopology` (each compiled for *that switch's* target spec), shards
a live key stream across them with a consistent-hash ring, and keeps the
fleet configured as conditions change:

* **per-switch resource cuts** — an operator re-provisions one box;
  only that switch replans and hot-swaps, state migrated, the rest of
  the fleet keeps serving;
* **fleet recompiles** — a change touching many switches plans them
  *concurrently* on a thread pool. Compiles share one
  :class:`~repro.core.cache.CompileCache`: per (source, target) group a
  leader compiles first, then the rest of the group fans out and is
  served from the layout cache (the PR 3 machinery makes the marginal
  switch nearly free);
* **hot-spot skew** — when one switch's window share exceeds the
  configured ratio, virtual-node arcs are donated from the hottest to
  the coldest switch, with the moved-key fraction bounded by
  ``max_move_fraction`` (consistent hashing moves only the donated
  arcs);
* **live app migration** — :meth:`migrate` drains a switch, snapshots
  its registers at a quiesce point, folds/readmits them into the target
  switch, shifts the ring, and canaries before committing (see
  :mod:`repro.fabric.migration`).

Per-switch results aggregate into a :class:`FleetReport`. Throughput is
accounted two ways: ``busy`` (total simulation CPU time) and
``makespan`` (per-window maximum across switches — the wall time of a
real fabric, whose switches are independent hardware running in
parallel; the simulator executes them serially in one process, so the
makespan figures are a model, not a measurement).
"""

from __future__ import annotations

import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..apps.netcache import netcache_linked
from ..core import CompileOptions
from ..core.cache import CompileCache
from ..obs import bridge_fleet_report, bridge_telemetry
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..obs.slo import SloMonitor
from ..pisa.resources import TargetSpec
from ..runtime.controller import ReconfigRecord, build_app, hot_swap
from ..runtime.planner import PlanError, PlanResult, ReconfigPlanner
from ..runtime.telemetry import TelemetryBus
from . import migration as fabric_migration
from .shard import HashRing
from .topology import FabricTopology

__all__ = ["FleetConfig", "FleetWindow", "SwitchStats", "FleetReport",
           "FleetController"]


@dataclass(frozen=True)
class FleetConfig:
    """Fleet control-loop knobs."""

    window_packets: int = 2000       # sharding/monitoring window size
    vnodes: int = 64                 # virtual nodes per switch on the ring
    hot_threshold: int = 4           # NetCache promotion threshold
    recompile_workers: int = 4       # thread pool for fleet recompiles
    skew_threshold: float = 0.0      # max/mean window share arming a
                                     # rebalance (0 disables)
    max_move_fraction: float = 0.2   # moved-key bound per rebalance
    rebalance_cooldown: int = 5      # min windows between rebalances
    engine: str | None = None        # pipeline engine (None = default)
    serve_batch: int | None = None   # serve sub-batch size; results
                                     # do not depend on it (0 = the
                                     # per-packet reference serve)
    slo_rules: tuple | None = None   # SLO rules (None = defaults, see
                                     # repro.obs.slo.default_slo_rules)


@dataclass
class FleetWindow:
    """One sharded window across the fleet."""

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
    """Elastic control plane for a multi-switch fabric."""

    def __init__(
        self,
        topology: FabricTopology,
        source=None,
        options: CompileOptions | None = None,
        config: FleetConfig | None = None,
        telemetry: TelemetryBus | None = None,
        cache: CompileCache | None = None,
    ):
        self.topology = topology
        self.config = config or FleetConfig()
        # Explicit None-checks: an empty TelemetryBus is falsy (len 0).
        self.telemetry = telemetry if telemetry is not None else TelemetryBus()
        bridge_telemetry(self.telemetry)
        self.options = options or CompileOptions()
        #: One cache for the whole fleet: every switch's planner shares
        #: it, so the N-th identical (source, target) compile is a
        #: layout-cache hit.
        self.cache = cache if cache is not None else CompileCache()
        self.source = source or netcache_linked(with_routing=False)
        serving = topology.serving()
        if not serving:
            raise ValueError("topology has no serving switches")
        self.ring = HashRing(serving, vnodes=self.config.vnodes)
        self._planners: dict[str, ReconfigPlanner] = {}
        self.packets_processed = 0
        self._scheduled_cuts: list[tuple[int, str, TargetSpec]] = []
        self._scheduled_migrations: list[tuple[int, str, str]] = []
        self._last_rebalance_window = -(10 ** 9)
        self._installed = False
        #: Per-switch SLO monitoring (subjects are switch names here;
        #: the single-switch runtime uses tenant modules).
        self.slo = SloMonitor(rules=self.config.slo_rules,
                              telemetry=self.telemetry)

    # -- construction -----------------------------------------------------------
    def planner_for(self, name: str) -> ReconfigPlanner:
        planner = self._planners.get(name)
        if planner is None:
            planner = ReconfigPlanner(
                options=self.options, telemetry=self.telemetry,
                cache=self.cache,
            )
            self._planners[name] = planner
        return planner

    def _installable(self) -> list[str]:
        """Switches that host an app: serving plus warm standbys."""
        return [name for name, node in self.topology.switches.items()
                if node.serving or node.role == "standby"]

    def install_all(self) -> dict[str, PlanResult]:
        """Compile and install the program on every serving/standby
        switch; returns per-switch plan results.

        Per (target) group a leader compiles first, then the remaining
        switches plan concurrently — they hit the shared layout cache,
        so fleet boot costs one real solve per distinct target.
        """
        names = self._installable()
        started = time.perf_counter()
        with trace.span("fleet.install", switches=len(names)):
            plans = self._plan_concurrent(
                {name: self.topology.node(name).target for name in names},
                cause="initial",
            )
            for name, plan in plans.items():
                node = self.topology.node(name)
                node.app = build_app(self.source, plan.compiled,
                                     self.config)
        self._installed = True
        self.telemetry.emit(
            "fleet_configured",
            packet_index=0,
            switches=len(names),
            seconds=time.perf_counter() - started,
            cache=self.cache.snapshot(),
            symbols={n: dict(p.compiled.symbol_values)
                     for n, p in plans.items()},
        )
        return plans

    def _plan_concurrent(self, targets: dict[str, TargetSpec],
                         cause: str) -> dict[str, PlanResult]:
        """Plan every switch in ``targets``; grouped leader-then-fanout.

        The leader of each distinct target warms the layout cache; the
        rest of its group plans concurrently on the thread pool and is
        served from cache. Raises :class:`~repro.runtime.planner.
        PlanError` if any switch cannot be laid out.
        """
        groups: dict[TargetSpec, list[str]] = defaultdict(list)
        for name, target in targets.items():
            groups[target].append(name)
        plans: dict[str, PlanResult] = {}
        started = time.perf_counter()
        with trace.span("fleet.plan", switches=len(targets),
                        cause=cause) as plan_span:
            for target, names in groups.items():
                leader = names[0]
                plans[leader] = self.planner_for(leader).plan(
                    self.source, target, cause=cause
                )
            rest = [name for name in targets if name not in plans]
            workers = min(self.config.recompile_workers, len(rest)) or 1
            if rest:
                with ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="fleet-plan"
                ) as pool:
                    futures = {
                        name: pool.submit(
                            self.planner_for(name).plan,
                            self.source, targets[name], cause,
                        )
                        for name in rest
                    }
                    for name, future in futures.items():
                        plans[name] = future.result()
            plan_span.set_attrs(groups=len(groups), concurrent=len(rest))
        self.telemetry.emit(
            "fleet_recompile",
            packet_index=self.packets_processed,
            cause=cause,
            switches=len(targets),
            concurrent=len(rest),
            workers=workers,
            seconds=time.perf_counter() - started,
            cache=self.cache.snapshot(),
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
    def recompile_all(self, targets: dict[str, TargetSpec] | TargetSpec,
                      cause: str = "fleet-recompile",
                      ) -> dict[str, ReconfigRecord]:
        """Recompile (and hot-swap) a set of switches concurrently.

        ``targets`` is either one spec applied to every serving switch
        or a per-switch dict. Planning fans out on the thread pool
        (shared cache); swaps — migrate, validate, canary, commit — run
        in the control thread, per switch, with per-switch rollback.
        """
        if isinstance(targets, TargetSpec):
            targets = {name: targets for name in self.topology.serving()}
        records: dict[str, ReconfigRecord] = {}
        started = time.perf_counter()
        with trace.span("fabric.recompile", switches=len(targets),
                        cause=cause):
            try:
                plans = self._plan_concurrent(targets, cause=cause)
            except PlanError as exc:
                # No layout for at least one switch: nothing swaps; the
                # fleet keeps serving its current configuration.
                plans = dict.fromkeys(targets, exc)
            for name, plan in plans.items():
                node = self.topology.node(name)
                with trace.span("fabric.swap", switch=name,
                                cause=cause) as span:
                    # A failed plan is timed from the plan's start; a
                    # swap, from its own (fabric.cut_s adds the plan).
                    record, app = hot_swap(
                        self, node.app, plan, cause,
                        started if isinstance(plan, PlanError)
                        else time.perf_counter(),
                        switch=name)
                    if app is not None:
                        node.app, node.target = app, targets[name]
                    span.set_attrs(committed=record.committed,
                                   backend=record.backend,
                                   error=record.error)
                obs_metrics.counter(
                    "p4all_fleet_reconfigs_total",
                    help="Fleet reconfigurations with per-switch "
                         "attribution.",
                    labels=("switch", "cause", "outcome"),
                ).inc(switch=name, cause=cause, outcome=record.outcome)
                records[name] = record
        return records

    def cut_switch(self, switch: str, target: TargetSpec,
                   cause: str = "target-change") -> ReconfigRecord:
        """Re-provision one switch: replan + migrate + swap, alone."""
        return self.recompile_all({switch: target}, cause=cause)[switch]

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
        ranked = sorted(
            ((stats.packets, name) for name, stats in report.per_switch.items()
             if name in self.ring.names),
            reverse=True,
        )
        if not ranked:
            return self.ring.names[0]
        return ranked[0][1]

    # -- the control loop --------------------------------------------------------
    def run(self, stream, packets: int,
            report: FleetReport | None = None) -> FleetReport:
        """Shard ``packets`` keys from ``stream`` across the fleet,
        window by window, firing scheduled cuts/migrations and skew
        rebalances as they come due. Passing a ``report`` continues it."""
        if not self._installed:
            self.install_all()
        report = report or FleetReport()
        for name in self._installable():
            report.per_switch.setdefault(name, SwitchStats())
        end = self.packets_processed + packets
        with trace.span("fabric.run", packets=packets) as run_span:
            while self.packets_processed < end:
                self._apply_due_cuts(report)
                n = min(self.config.window_packets,
                        end - self.packets_processed)
                keys = np.asarray(stream.sample(n))
                migration_due = self._pop_due_migration(report)
                self._window(keys, report, migration_due)
            run_span.set_attrs(hit_rate=report.hit_rate,
                               windows=len(report.windows))
            report.packets = sum(
                s.packets for s in report.per_switch.values())
            report.hits = sum(s.hits for s in report.per_switch.values())
            report.slo_violations = list(self.slo.violations)
            # Mirror the fleet outcome into the still-open fabric.run
            # span (and the flight recorder) the way runtime telemetry
            # already lands in the span tree.
            bridge_fleet_report(report)
        for name in self.ring.names:
            app = self.topology.node(name).app
            if app is not None:
                report.final_symbols[name] = dict(
                    app.compiled.symbol_values
                )
        return report

    def _apply_due_cuts(self, report: FleetReport) -> None:
        while (self._scheduled_cuts
               and self._scheduled_cuts[0][0] <= self.packets_processed):
            _at, name, target = self._scheduled_cuts.pop(0)
            self.telemetry.emit(
                "target_change_requested",
                packet_index=self.packets_processed,
                switch=name, target=target.name,
                memory_bits_per_stage=target.memory_bits_per_stage,
            )
            record = self.cut_switch(name, target)
            report.reconfigs.append((name, record))

    def _pop_due_migration(self, report: FleetReport):
        if (self._scheduled_migrations
                and self._scheduled_migrations[0][0]
                <= self.packets_processed):
            _at, src, dst = self._scheduled_migrations.pop(0)
            if src == "hottest":
                src = self._resolve_hottest(report)
            return src, dst
        return None

    def _run_shard(self, name: str, shard: np.ndarray,
                   ) -> tuple[int, int, float]:
        """Serve one switch's sub-batch; returns (packets, hits, busy)."""
        app = self.topology.node(name).app
        t0 = time.perf_counter()
        stats = app.run_trace(shard, serve_batch=self.config.serve_batch)
        return stats.packets, stats.hits, time.perf_counter() - t0

    def _window(self, keys: np.ndarray, report: FleetReport,
                migration_due: tuple[str, str] | None) -> None:
        """Serve one window, optionally with a migration in its middle.

        When a migration is due, this window models the drain: keys
        owned by the moving shard are buffered at the ingress while the
        rest of the fleet serves normally, the state moves, the ring
        shifts, and the buffer replays onto the destination. The
        buffered count is the migration's downtime in packets.
        """
        index = len(report.windows)
        shards = self.ring.shard(keys)
        served: dict[str, tuple[int, int, float]] = {}
        buffered = np.empty(0, dtype=keys.dtype)
        if migration_due is not None:
            src, _dst = migration_due
            buffered = shards.pop(src, buffered)

        with trace.span("fabric.window", index=index,
                        packets=len(keys)) as span:
            for name, shard in shards.items():
                served[name] = self._run_shard(name, shard)

            if migration_due is not None:
                src, dst = migration_due

                def _replay(mig) -> None:
                    # Drain the buffer onto the new owner (or back onto
                    # src after a rollback) before the migration event
                    # is emitted, so its replayed_packets is final.
                    if not len(buffered):
                        return
                    name = dst if mig.committed else src
                    pkts, hits, busy = self._run_shard(name, buffered)
                    mig.replayed_packets = pkts
                    prev = served.get(name, (0, 0, 0.0))
                    served[name] = (prev[0] + pkts, prev[1] + hits,
                                    prev[2] + busy)

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
                           makespan=window.makespan_seconds)

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
                self.slo.observe("hit_rate", name, hits / pkts,
                                 packet_index=self.packets_processed)
        obs_metrics.gauge(
            "p4all_fabric_window_hit_rate",
            help="Fleet-wide hit rate of the most recent window.",
        ).set(window.hit_rate)
        report.windows.append(window)
        self.packets_processed += len(keys)
        self.telemetry.emit(
            "fabric_window",
            packet_index=self.packets_processed,
            window=index,
            hit_rate=window.hit_rate,
            per_switch=dict(window.per_switch),
            makespan_seconds=window.makespan_seconds,
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
