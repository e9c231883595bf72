"""The five benchmark workloads.

Each drives one public entry point with program defaults (only the
arguments its docstring names are set), closed loop, from one generator
process. A workload object goes through ``build()`` (one complete
set-up, repeatable), ``run()`` (the timed region) and then reports
``end_to_end()`` facts, ``layers()`` rows (traced run: the workload's
own numbers plus the layer's public call issued directly on the same
inputs) and, through :mod:`oracle`, its correctness tally.

Sizes are a deterministic function of ``--seconds`` (nominal rates of a
2-core box at the commit that added the benchmark), never of a clock:
the same seed and seconds give the same packets, windows and reconfigs,
so every count, hit rate and objective repeats exactly.
"""

import dataclasses
import json
import math
import statistics
import time
from pathlib import Path

from repro.apps import (
    NetCacheApp,
    conquest_source,
    netcache_linked,
    netcache_source,
    precision_source,
    simulate_netcache,
    sketchlearn_source,
)
from repro.core import (
    CompileError,
    compile_linked,
    compile_source,
    validate_layout,
)
from repro.fabric import FabricTopology, FleetConfig, FleetController
from repro.obs import trace as obs_trace
from repro.pisa import Packet, Pipeline, tofino
from repro.runtime import (
    ElasticRuntime,
    ReconfigPlanner,
    RuntimeConfig,
    TelemetryBus,
)
from repro.structures import CMS_SOURCE
from repro.workloads.churn import ChurningZipf
from repro.workloads.zipf import ZipfGenerator

__all__ = ["WORKLOADS", "EXPECTED", "t6", "tag", "timed", "fast_unit",
           "utility_rel"]

#: ILP objectives recorded at the commit that added the benchmark, keyed
#: ``<program>.<target tag>``; ``utility_rel`` is measured against them.
EXPECTED: dict[str, float] = json.loads(
    Path(__file__).with_name("expected.json").read_text())

median = statistics.median


def t6(memory_kb: int = 64):
    """Tofino cut to 6 stages × ``memory_kb`` Kb: NetCache-capable, with
    second-scale ILP solves."""
    return dataclasses.replace(tofino(), stages=6,
                               memory_bits_per_stage=memory_kb * 1024)


def tag(target) -> str:
    """``tofino``, ``t6`` or ``t6m<Kb>`` — the targets used here."""
    if target == tofino():
        return "tofino"
    kb = target.memory_bits_per_stage // 1024
    return "t6" if kb == 64 else f"t6m{kb}"


def timed(fn, *args, **kwargs):
    """``(result, wall seconds)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (no interpolation)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def fast_unit(walls) -> float:
    """The 10th-percentile unit wall. On a shared box interference only
    ever adds time to a unit, so the fast tenth repeats from run to run
    where the median wanders with the neighbours' load."""
    return percentile(walls, 0.1)


def utility_rel(artifacts: dict) -> float:
    """Geometric mean over artifacts of ILP objective ÷ recorded one."""
    logs = [math.log(compiled.solution.objective / EXPECTED[key])
            for key, compiled in artifacts.items()]
    return math.exp(sum(logs) / len(logs))


class Stamped:
    """Stream proxy: notes when each window's sample starts (window wall
    = gap between consecutive starts) and how long sampling takes."""

    def __init__(self, stream, rec):
        self.stream = stream
        self.rec = rec
        self.starts: list[float] = []
        self.sample_s = 0.0

    def sample(self, count: int):
        t0 = time.perf_counter()
        self.starts.append(t0)
        with self.rec.span("workloads.sample", "workloads"):
            keys = self.stream.sample(count)
        self.sample_s += time.perf_counter() - t0
        return keys

    def windows(self, first: int, end: float) -> list[float]:
        """Window walls from the ``first``-th sample on, closed by ``end``."""
        edges = self.starts[first:] + [end]
        return [b - a for a, b in zip(edges, edges[1:])]


class TimedPlanner(ReconfigPlanner):
    """The stock planner, noting each plan's wall and result."""

    def __init__(self, rec, **kwargs):
        super().__init__(**kwargs)
        self.rec = rec
        #: ``(target, wall seconds, PlanResult)`` per plan
        self.plans: list[tuple] = []

    def plan(self, source, target, cause="unspecified"):
        with self.rec.span("runtime.plan", "runtime"):
            result, wall = timed(super().plan, source, target, cause=cause)
        self.plans.append((target, wall, result))
        return result


class Workload:
    """Common shape; see the module docstring."""

    name = ""
    #: complete set-ups per untraced run; ``setup_s`` reports their median
    setup_reps = 3

    def __init__(self, seed: int, seconds: float, rec):
        self.seed = seed
        self.rec = rec
        #: cold-compile seconds of each ``build()`` so far
        self.build_compile_s: list[float] = []
        self.run_wall = 0.0

    def build(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def artifacts(self) -> dict:
        """``<program>.<target tag>`` → every cold-compiled artifact."""
        raise NotImplementedError

    def units(self) -> tuple[int, list[float]]:
        """``(packets per unit, wall of each repeated unit)``."""
        raise NotImplementedError

    def compile_seconds(self) -> float:
        """Cold-compile seconds of the programs this workload needs: the
        artifact's ``CompileStats.total_seconds`` where a constructor
        compiles, fastest of the set-ups."""
        return min(self.build_compile_s)

    def compile_samples(self) -> int:
        """Samples behind each program's ``compile_seconds`` term."""
        return len(self.build_compile_s)

    def failed_ops(self) -> tuple[int, int, list[str]]:
        """``(attempted, failed, notes)`` of the timed region."""
        raise NotImplementedError

    def layers(self) -> dict:
        """Per-layer rows of a traced run."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop what the workload started (worker pools)."""


# -- compile-cold ---------------------------------------------------------------

class CompileCold(Workload):
    """Cold compiles (no cache) of the four apps and the linked NetCache
    on ``t6`` plus NetCache on the full Tofino; then the fresh linked
    artifact serves a Zipf trace, streaming, at the app's defaults.

    Why: the compiler and ILP do all the work and the data plane almost
    none — Fig-10 encoding, presolve and front-end changes show here
    only. The short serve is the run time of the generated code.
    """

    name = "compile-cold"
    SOURCES = {
        "cms": lambda: CMS_SOURCE,
        "sketchlearn": sketchlearn_source,
        "conquest": conquest_source,
        "precision": precision_source,
        "netcache": netcache_source,
    }
    SERVE_UNITS = 15

    def __init__(self, seed, seconds, rec):
        super().__init__(seed, seconds, rec)
        small = max(1, round(0.2 * seconds))
        # The full-Tofino NetCache solve is ~6 s: one round per 10 s, at
        # least one from a quarter of that on, none in a smoke-scale run.
        self.rounds = {
            ("cms", "t6"): small, ("sketchlearn", "t6"): small,
            ("conquest", "t6"): small, ("precision", "t6"): small,
            ("netcache-linked", "t6"): small,
            ("netcache", "tofino"): (max(1, round(0.1 * seconds))
                                     if seconds >= 2.5 else 0),
        }
        self.serve_keys = max(200, int(400 * seconds))

    def build(self) -> None:
        gen = ZipfGenerator(10_000, alpha=0.99, seed=self.seed)
        self.traces = [gen.sample(self.serve_keys)
                       for _ in range(self.SERVE_UNITS)]

    def _compile(self, program: str, target):
        """``(artifact, seconds spent linking)``, nothing cached."""
        if program == "netcache-linked":
            with self.rec.span("link.netcache_linked", "link"):
                linked, link_s = timed(netcache_linked, with_routing=False)
            with self.rec.span("core.compile_linked", "core"):
                return compile_linked(linked, target), link_s
        with self.rec.span(f"core.compile_source:{program}", "core"):
            return compile_source(self.SOURCES[program](), target,
                                  source_name=program), 0.0

    def run(self) -> None:
        targets = {"t6": t6(), "tofino": tofino()}
        self.walls: dict[str, list[float]] = {}
        self.link_s: list[float] = []
        self.compiled: dict[str, object] = {}
        self.compiles = 0
        self.compile_errors: list[str] = []
        for (program, where), rounds in self.rounds.items():
            key = f"{program}.{where}"
            for _ in range(rounds):
                self.compiles += 1
                try:
                    (compiled, link_s), wall = timed(
                        self._compile, program, targets[where])
                except CompileError as exc:   # counted as a failed op
                    self.compile_errors.append(f"{key}: {exc!r}")
                    continue
                self.walls.setdefault(key, []).append(wall)
                self.compiled[key] = compiled
                if program == "netcache-linked":
                    self.link_s.append(link_s)
        self.app = self.serve_app()
        self.serve_s: list[float] = []
        self.serve_stats = []
        for keys in self.traces:
            with self.rec.span("apps.run_trace", "apps"):
                stats, wall = timed(self.app.run_trace, keys)
            self.serve_s.append(wall)
            self.serve_stats.append(stats)

    def failed_ops(self) -> tuple[int, int, list[str]]:
        """Compiles that raised, packets the fresh artifact did not serve."""
        packets = self.SERVE_UNITS * self.serve_keys
        unserved = packets - sum(s.packets for s in self.serve_stats)
        notes = list(self.compile_errors)
        if unserved:
            notes.append(f"{unserved} packets unserved")
        return (self.compiles + packets,
                len(self.compile_errors) + unserved, notes)

    def serve_app(self, engine=None) -> NetCacheApp:
        """NetCache on the linked artifact this run compiled."""
        return NetCacheApp(t6(), compiled=self.compiled["netcache-linked.t6"],
                           source=netcache_source(with_routing=False),
                           engine=engine)

    def artifacts(self) -> dict:
        return self.compiled

    def units(self):
        return self.serve_keys, self.serve_s

    def compile_seconds(self) -> float:
        """Σ over the program list of the per-program fastest wall,
        source (or modules) in → artifact out."""
        return sum(min(walls) for walls in self.walls.values())

    def compile_samples(self) -> int:
        return min(len(walls) for walls in self.walls.values())

    def hit_rate(self) -> float:
        return (sum(s.hits for s in self.serve_stats)
                / sum(s.packets for s in self.serve_stats))

    def layers(self) -> dict:
        arts = self.compiled.values()
        stats = [c.stats for c in arts]
        rows = {
            "lang.parse_s": sum(s.parse_seconds for s in stats),
            "analysis.ir_s": sum(s.ir_seconds for s in stats),
            "analysis.bounds_s": sum(s.bounds_seconds for s in stats),
            "analysis.verify_s": sum(s.verify_seconds for s in stats),
            "core.ilp_build_s": sum(s.ilp_build_seconds for s in stats),
            "ilp.solve_s": sum(s.ilp_solve_seconds for s in stats),
            "core.codegen_s": sum(s.codegen_seconds for s in stats),
            "ilp.vars": sum(s.ilp_variables for s in stats),
            "ilp.constraints": sum(s.ilp_constraints for s in stats),
            "ilp.nodes": sum(c.solution.nodes_explored for c in arts),
            "core.p4_lines": sum(len(c.p4_source.splitlines()) for c in arts),
            "link.link_s": median(self.link_s) if self.link_s else 0.0,
        }
        # Last-round wall minus the phases its CompileStats account for.
        rows["core.other_s"] = sum(
            self.walls[key][-1] - c.stats.total_seconds
            for key, c in self.compiled.items()
        ) - (self.link_s[-1] if self.link_s else 0.0)
        validate_s = build_s = 0.0
        for compiled in arts:
            with self.rec.span("core.validate_layout", "core"):
                validate_s += timed(validate_layout, compiled)[1]
            with self.rec.span("pisa.Pipeline", "pisa"):
                build_s += timed(Pipeline, compiled)[1]
        rows["core.validate_s"] = validate_s
        rows["pisa.pipeline_build_s"] = build_s
        for key, compiled in self.compiled.items():
            rows[f"compile_s.{key}"] = min(self.walls[key])
            rows[f"objective.{key}"] = compiled.solution.objective
        rows["apps.hit_rate"] = self.hit_rate()
        rows["apps.insertions"] = sum(s.insertions for s in self.serve_stats)
        rows["apps.evictions"] = sum(s.evictions for s in self.serve_stats)
        rows["pisa.scalar_us_per_pkt"] = (
            fast_unit(self.serve_s) / self.serve_keys * 1e6)
        return rows


# -- runtime-reconfig -----------------------------------------------------------

class RuntimeReconfig(Workload):
    """``ElasticRuntime(t6).run(ChurningZipf(2000, α=1.3, seed), N)``,
    default ``RuntimeConfig`` except ``window_packets=1000``, with a
    scheduled target change per segment down a memory ladder 60→32 Kb
    per stage in 4 Kb steps (first-seen targets: front-end hit, layout
    miss, warm-started solve, migrate, canary, swap) and back up to
    64 Kb (layout-cache hits).

    Why: uses the compiler the other way (warm caches, revisits) beside
    compile-cold's cold solves, and serves at the defaults ``p4all run``
    ships (per-packet, ``compiled`` engine).
    """

    name = "runtime-reconfig"
    WINDOW = 1000

    def __init__(self, seed, seconds, rec):
        super().__init__(seed, seconds, rec)
        steps = min(8, max(1, round(0.8 * seconds)))
        down = [60, 56, 52, 48, 44, 40, 36, 32][:steps]
        self.ladder = down + down[-2::-1] + [64]
        windows = max(len(self.ladder) + 1, round(24 * seconds))
        self.segment = windows // (len(self.ladder) + 1) * self.WINDOW
        self.packets = self.segment * (len(self.ladder) + 1)

    def make(self, engine=None, cache=None):
        """A runtime with the ladder scheduled, its planner and stream."""
        bus = TelemetryBus()
        planner = TimedPlanner(self.rec, telemetry=bus, cache=cache)
        config = RuntimeConfig(window_packets=self.WINDOW, engine=engine)
        with self.rec.span("runtime.ElasticRuntime", "runtime"):
            runtime, init_s = timed(ElasticRuntime, t6(), config=config,
                                    telemetry=bus, planner=planner)
        for step, kb in enumerate(self.ladder):
            runtime.schedule_target_change(
                self.WINDOW + (step + 1) * self.segment, t6(kb))
        stream = Stamped(
            ChurningZipf(2000, alpha=1.3, seed=self.seed), self.rec)
        return runtime, planner, stream, init_s

    def build(self) -> None:
        self.runtime, self.planner, self.stream, self.init_s = self.make()
        self.build_compile_s.append(
            self.planner.plans[0][2].compiled.stats.total_seconds)
        self.warmup = self.runtime.run(self.stream, self.WINDOW)

    def run(self) -> None:
        with self.rec.span("runtime.run", "runtime"):
            self.report = self.runtime.run(self.stream, self.packets)
        self.window_s = self.stream.windows(1, time.perf_counter())
        target_changes = [r for r in self.report.reconfigs
                          if r.cause == "target-change"]
        self.first_seen = [r for r in target_changes
                           if not r.solver_stats.get("layout_cached")]
        self.revisits = [r for r in target_changes
                         if r.solver_stats.get("layout_cached")]

    def failed_ops(self) -> tuple[int, int, list[str]]:
        """Packets not served, reconfigs rolled back, on greedy, or
        missing from the ladder."""
        notes = []
        unserved = self.packets - self.report.packets
        bad = [r for r in self.report.reconfigs
               if not r.committed or r.fallback]
        missing = max(0, len(self.ladder) - len(self.first_seen)
                      - len(self.revisits))
        if unserved or bad or missing:
            notes.append(f"{unserved} packets unserved, {len(bad)} reconfigs "
                         f"rolled back or greedy, {missing} missing")
        attempted = self.packets + len(self.report.reconfigs) + missing
        return attempted, unserved + len(bad) + missing, notes

    def artifacts(self) -> dict:
        return {"netcache-linked." + tag(target): result.compiled
                for target, _wall, result in self.planner.plans}

    def units(self):
        # Stall windows (a reconfig inside) fall out of the fast tenth.
        return self.WINDOW, self.window_s

    def hit_rate(self) -> float:
        return self.report.hit_rate

    def reconfig_seconds(self) -> float:
        """Median ``ReconfigRecord.seconds`` to first-seen targets."""
        return median(r.seconds for r in self.first_seen)

    def layers(self) -> dict:
        report = self.report
        # Every reconfig plans exactly once, in order, after the initial
        # plan: pair the records with the planner's walls.
        plan_s = {id(record): wall for record, (_t, wall, _r)
                  in zip(report.reconfigs, self.planner.plans[1:])}
        first_plan = [plan_s[id(r)] for r in self.first_seen]
        first_swap = [r.seconds - plan_s[id(r)] for r in self.first_seen]
        migrations = [r.migration for r in report.reconfigs if r.migration]
        kv_old = sum(m.kv_entries_old for m in migrations)
        reconfig_total = sum(r.seconds for r in report.reconfigs)
        snapshot = self.planner.cache.snapshot()
        return {
            "runtime.init_s": self.init_s,
            "runtime.plan_s": median(first_plan),
            "runtime.swap_s": median(first_swap),
            "runtime.reconfig_first_s": self.reconfig_seconds(),
            "runtime.reconfig_first_max_s": max(
                r.seconds for r in self.first_seen),
            "runtime.reconfig_cached_s": median(
                r.seconds for r in self.revisits),
            "runtime.window_ms_p50": median(self.window_s) * 1e3,
            "runtime.window_ms_p90": percentile(self.window_s, 0.9) * 1e3,
            "workloads.sample_s": self.stream.sample_s,
            "runtime.serve_us_per_pkt": (
                (self.run_wall - reconfig_total - self.stream.sample_s)
                / report.packets * 1e6),
            "runtime.kv_migrated_frac": (
                sum(m.kv_migrated for m in migrations) / kv_old
                if kv_old else 1.0),
            "runtime.fallbacks": sum(r.fallback for r in report.reconfigs),
            "runtime.drift_reconfigs": sum(
                r.cause == "hit-rate-drop" for r in report.reconfigs),
            "core.cache.frontend_hits": snapshot["frontend_hits"],
            "core.cache.layout_hits": snapshot["layout_hits"],
            "core.cache.layout_misses": snapshot["layout_misses"],
            "ilp.nodes": sum(r.solver_stats.get("nodes_explored", 0)
                             for r in self.first_seen),
            "obs.enabled_overhead_frac": self.obs_overhead(),
            "apps.hit_rate": report.hit_rate,
            "apps.cached_entries": len(self.runtime.app.cached_entries()),
        }

    def obs_overhead(self) -> float:
        """``repro.obs.trace`` on ÷ off − 1 over paired windows of one
        20 k-packet slice, on the runtime's initial layout."""
        app = NetCacheApp(t6(), hot_threshold=RuntimeConfig().hot_threshold,
                          compiled=self.planner.plans[0][2].compiled,
                          source=self.runtime.source_text)
        keys = ChurningZipf(2000, alpha=1.3, seed=self.seed).sample(
            20 * self.WINDOW)
        walls: dict[bool, list[float]] = {False: [], True: []}
        try:
            for index in range(20):
                traced = bool(index % 2)
                if traced:
                    obs_trace.enable()
                window = keys[index * self.WINDOW:(index + 1) * self.WINDOW]
                walls[traced].append(timed(app.run_trace, window)[1])
                obs_trace.disable()
        finally:
            obs_trace.disable()
            obs_trace.reset()
        return median(walls[True]) / median(walls[False]) - 1.0


# -- fleet-zipf -----------------------------------------------------------------

class FleetZipf(Workload):
    """``FleetController(FabricTopology.flat(4, t6, standby=1)).run(
    ZipfGenerator(10 000, α=0.9, seed), N)``, default ``FleetConfig``,
    one ``schedule_cut`` of the first switch to 32 Kb at ¼ and one
    ``schedule_migration(second switch → standby)`` at ½. The migration
    names its source: ``"hottest"`` resolves, for some seeds, to the cut
    switch, whose smaller layout re-hashes onto the standby's and drops
    colliding cache entries — a failed operation by this benchmark's
    count, and a workload must have none.

    Why: the fabric layer (ring sharding, per-window control, migration)
    over the same scalar serve path as runtime-reconfig; a serve-path
    gain must show on both, a fabric gain only here. Window walls are
    wall clock, never the report's makespan model.
    """

    name = "fleet-zipf"
    WINDOW = FleetConfig().window_packets

    def __init__(self, seed, seconds, rec):
        super().__init__(seed, seconds, rec)
        self.packets = max(4, round(30 * seconds)) * self.WINDOW

    def make(self, engine=None, cache=None):
        """A fleet with the cut and the migration scheduled, its install
        plans and stream."""
        bus = TelemetryBus()
        config = FleetConfig(engine=engine) if engine else None
        fleet = FleetController(FabricTopology.flat(4, t6(), standby=1),
                                config=config, telemetry=bus, cache=cache)
        with self.rec.span("fabric.install_all", "fabric"):
            plans, install_s = timed(fleet.install_all)
        fleet.schedule_cut(self.WINDOW + self.packets // 4, "s0", t6(32))
        fleet.schedule_migration(self.WINDOW + self.packets // 2, "s1", "s4")
        stream = Stamped(ZipfGenerator(10_000, alpha=0.9, seed=self.seed),
                         self.rec)
        return fleet, plans, stream, install_s

    def build(self) -> None:
        self.close()
        self.fleet, self.plans, self.stream, self.install_s = self.make()
        self.install_layout_hits = self.fleet.cache.snapshot()["layout_hits"]
        self.build_compile_s.append(sum(
            plan.compiled.stats.total_seconds for plan in self.plans.values()
            if not plan.solver_stats.get("layout_cached")))
        self.warmup = self.fleet.run(self.stream, self.WINDOW)

    def run(self) -> None:
        with self.rec.span("fabric.run", "fabric"):
            self.report = self.fleet.run(self.stream, self.packets)
        self.window_s = self.stream.windows(1, time.perf_counter())

    def close(self) -> None:
        fleet = getattr(self, "fleet", None)
        if fleet is not None:
            fleet.close()

    def failed_ops(self) -> tuple[int, int, list[str]]:
        """Packets dropped or not served, the cut or the migration not
        committed, cache entries dropped in flight."""
        report = self.report
        unserved = (self.packets - report.packets) + report.dropped_packets
        bad = [r for _name, r in report.reconfigs
               if not r.committed or r.fallback]
        lost = [m for m in report.migrations if not m.committed or m.kv_dropped]
        missing = (2 - len(report.reconfigs) - len(report.migrations))
        notes = []
        if unserved or bad or lost or missing:
            notes.append(f"{unserved} packets unserved, {len(bad)} cuts and "
                         f"{len(lost)} migrations bad, {missing} missing")
        failed = unserved + len(bad) + len(lost) + max(0, missing)
        return self.packets + 2, failed, notes

    def artifacts(self) -> dict:
        """The installed layout and, on the cut switch, the 32 Kb one."""
        apps = (node.app for node in self.fleet.topology.switches.values())
        return {"netcache-linked." + tag(app.compiled.target): app.compiled
                for app in apps if app is not None}

    def units(self):
        return self.WINDOW, self.window_s

    def hit_rate(self) -> float:
        return self.report.hit_rate

    def layers(self) -> dict:
        report = self.report
        serving = [s.packets for s in report.per_switch.values() if s.packets]
        busy = sum(s.busy_seconds for s in report.per_switch.values())
        regen = ZipfGenerator(10_000, alpha=0.9, seed=self.seed)
        shard_s = []
        for _ in range(min(50, len(self.window_s))):
            keys = regen.sample(self.WINDOW)
            with self.rec.span("fabric.ring.shard", "fabric"):
                shard_s.append(timed(self.fleet.ring.shard, keys)[1])
        recompiles = [e for e in self.fleet.telemetry.events_of(
            "fleet_recompile") if e.data.get("cause") == "target-change"]
        cut_s = (sum(e.data["seconds"] for e in recompiles)
                 + sum(r.seconds for _name, r in report.reconfigs))
        migrations = report.migrations
        return {
            "fabric.install_s": self.install_s,
            "fabric.layout_cache_hits": self.install_layout_hits,
            "fabric.shard_us_per_pkt": median(shard_s) / self.WINDOW * 1e6,
            "fabric.window_ms_p50": median(self.window_s) * 1e3,
            "fabric.window_ms_p90": percentile(self.window_s, 0.9) * 1e3,
            "fabric.serve_busy_s": busy,
            "fabric.control_s": self.run_wall - busy - self.stream.sample_s,
            "fabric.imbalance": max(serving) / (sum(serving) / len(serving)),
            "fabric.migration_s": sum(m.seconds for m in migrations),
            "fabric.downtime_pkts": sum(m.downtime_packets
                                        for m in migrations),
            "fabric.moved_frac": sum(m.moved_fraction for m in migrations),
            "fabric.kv_dropped": sum(m.kv_dropped for m in migrations),
            "fabric.cut_s": cut_s,
            # Annotation only: switches modeled as independent hardware.
            "fabric.modeled_makespan_pkts_per_s": report.aggregate_pkts_per_sec,
            "workloads.sample_s": self.stream.sample_s,
            "apps.hit_rate": report.hit_rate,
            "apps.cached_entries": sum(
                len(node.app.cached_entries())
                for node in self.fleet.topology.switches.values()
                if node.app is not None),
        }


# -- netcache-batched -----------------------------------------------------------

class NetCacheBatched(Workload):
    """``NetCacheApp(t6, engine="vector", hot_threshold=4)``; consecutive
    ``run_trace(keys_12288, serve_batch=4096)`` calls (3 sub-batches
    each) on ``ZipfGenerator(10 000, α=0.99, seed)``.

    Why: the batched path — vector kernels + ``PipelineResult``
    materialisation + controller scan. The scalar plan does nothing
    here, so a ``compiled.py`` gain must not move it and a
    ``vector.py``/materialisation/``run_trace`` gain must.
    """

    name = "netcache-batched"
    SERVE_BATCH = 4096
    HOT_THRESHOLD = 4

    def __init__(self, seed, seconds, rec):
        super().__init__(seed, seconds, rec)
        self.calls = max(1, round(3.2 * seconds))
        self.call_keys = 3 * self.SERVE_BATCH

    def make(self, engine="vector", compiled=None) -> NetCacheApp:
        return NetCacheApp(t6(), engine=engine,
                           hot_threshold=self.HOT_THRESHOLD, compiled=compiled)

    def sample_traces(self):
        """``(warm-up keys, [keys per call])`` — the same for a seed."""
        gen = ZipfGenerator(10_000, alpha=0.99, seed=self.seed)
        return (gen.sample(self.SERVE_BATCH),
                [gen.sample(self.call_keys) for _ in range(self.calls)])

    def build(self) -> None:
        with self.rec.span("apps.NetCacheApp", "apps"):
            self.app = self.make()
        self.build_compile_s.append(self.app.compiled.stats.total_seconds)
        with self.rec.span("workloads.sample", "workloads"):
            (self.warm_keys, self.traces), self.trace_gen_s = timed(
                self.sample_traces)
        self.app.run_trace(self.warm_keys, serve_batch=self.SERVE_BATCH)

    def run(self) -> None:
        self.call_s: list[float] = []
        self.stats = []
        for keys in self.traces:
            with self.rec.span("apps.run_trace", "apps"):
                stats, wall = timed(self.app.run_trace, keys,
                                    serve_batch=self.SERVE_BATCH)
            self.call_s.append(wall)
            self.stats.append(stats)

    def failed_ops(self) -> tuple[int, int, list[str]]:
        attempted = self.calls * self.call_keys
        unserved = attempted - sum(s.packets for s in self.stats)
        notes = [f"{unserved} packets unserved"] if unserved else []
        return attempted, unserved, notes

    def artifacts(self) -> dict:
        return {"netcache.t6": self.app.compiled}

    def units(self):
        return self.call_keys, self.call_s

    def hit_rate(self) -> float:
        return (sum(s.hits for s in self.stats)
                / sum(s.packets for s in self.stats))

    def layers(self) -> dict:
        keys = [int(k) for k in self.traces[0]]
        n = len(keys)
        step = self.SERVE_BATCH

        def build_packets():
            return [Packet(fields={"req_key": key, "dst": 1}) for key in keys]

        def batches(pipe, packets, collect):
            for start in range(0, n, step):
                pipe.process_many(packets[start:start + step], collect=collect)

        with self.rec.span("pisa.Packet", "pisa"):
            packets, build_s = timed(build_packets)
        compiled = self.app.compiled
        # Twin pipelines: same artifact, fresh registers, so the layer's
        # own public call sees the same keys without disturbing the app.
        with self.rec.span("pisa.process_many:collect=False", "pisa"):
            engine_s = timed(batches, Pipeline(compiled, engine="vector"),
                             packets, False)[1]
        with self.rec.span("pisa.process_many:collect=True", "pisa"):
            collect_s = timed(batches, Pipeline(compiled, engine="vector"),
                              packets, True)[1]
        with self.rec.span("pisa.process_many:compiled", "pisa"):
            scalar_s = timed(Pipeline(compiled, engine="compiled")
                             .process_many, packets, collect=False)[1]
        vplan = self.app.pipeline.vplan
        call_us = fast_unit(self.call_s) / self.call_keys * 1e6
        build_us = build_s / n * 1e6
        engine_us = engine_s / n * 1e6
        materialise_us = (collect_s - engine_s) / n * 1e6
        stream = simulate_netcache(
            self.app.cms_rows, self.app.cms_cols, self.app.kv_rows,
            self.app.kv_cols, list(self.warm_keys) + keys,
            hot_threshold=self.HOT_THRESHOLD)
        batched_hits = self.stats[0].hits
        warm_hits = stream.hits - simulate_netcache(
            self.app.cms_rows, self.app.cms_cols, self.app.kv_rows,
            self.app.kv_cols, self.warm_keys,
            hot_threshold=self.HOT_THRESHOLD).hits
        return {
            "workloads.trace_gen_s": self.trace_gen_s,
            "pisa.packet_build_us_per_pkt": build_us,
            "pisa.vector_engine_us_per_pkt": engine_us,
            "pisa.materialise_us_per_pkt": materialise_us,
            "pisa.scalar_us_per_pkt": scalar_s / n * 1e6,
            "apps.controller_us_per_pkt": (
                call_us - build_us - engine_us - materialise_us),
            "pisa.vector_stage_frac": (
                sum(kernel is not None for _s, kernel in vplan.stage_exec)
                / len(vplan.stage_exec)),
            "pisa.batches": self.calls * math.ceil(self.call_keys / step),
            "apps.insertions": sum(s.insertions for s in self.stats),
            "apps.evictions": sum(s.evictions for s in self.stats),
            "apps.rejected_insertions": sum(s.rejected_insertions
                                            for s in self.stats),
            # First call only: batched serving promotes up to one
            # sub-batch later than the streaming reference.
            "apps.hit_rate_gap_vs_stream": (batched_hits - warm_hits) / n,
            "apps.hit_rate": self.hit_rate(),
            "apps.cached_entries": len(self.app.cached_entries()),
        }


# -- cms-sharded-w2 -------------------------------------------------------------

class CmsShardedW2(Workload):
    """``Pipeline(compile_source(CMS_SOURCE, tofino()), engine="vector")
    .process_many(packets, collect=False, workers=2,
    shard_field="flow_id")``, packets pre-built in set-up, one warm-up
    batch (pool spawn), then timed batches of the same packets.

    Why: the only workload where ``pool.py``/``sharded.py`` run; same
    vector kernels as netcache-batched but register-only, so a kernel
    gain shows on both, a materialisation gain only there, a pool gain
    only here. workers = the 2 cores of the reference box.
    """

    name = "cms-sharded-w2"
    WORKERS = 2
    #: a set-up is 0.7 s here: two more cost little and steady its median
    #: and the fastest of its 0.07 s compiles
    setup_reps = 5

    def __init__(self, seed, seconds, rec):
        super().__init__(seed, seconds, rec)
        self.batch_packets = max(2000, min(200_000, int(200_000 * seconds)))
        self.batches = max(2, round(9 * seconds))

    def sample_keys(self):
        return ZipfGenerator(100_000, alpha=0.99, seed=self.seed).sample(
            self.batch_packets)

    def batch(self, pipe, packets, workers=WORKERS):
        return pipe.process_many(packets, collect=False, workers=workers,
                                 shard_field="flow_id")

    def build(self) -> None:
        self.close()
        with self.rec.span("core.compile_source:cms", "core"):
            self.compiled, compile_s = timed(
                compile_source, CMS_SOURCE, tofino(), source_name="cms")
        self.build_compile_s.append(compile_s)
        self.pipe = Pipeline(self.compiled, engine="vector")
        self.keys = self.sample_keys()
        with self.rec.span("pisa.Packet", "pisa"):
            self.packets, self.packet_build_s = timed(
                lambda: [Packet(fields={"flow_id": int(k)})
                         for k in self.keys])
        with self.rec.span("pisa.process_many:spawn", "pisa"):
            self.warm_s = timed(self.batch, self.pipe, self.packets)[1]

    def run(self) -> None:
        self.batch_s: list[float] = []
        self.reports: list[dict] = []
        self.served = 0
        for _ in range(self.batches):
            with self.rec.span("pisa.process_many:workers=2", "pisa"):
                count, wall = timed(self.batch, self.pipe, self.packets)
            self.batch_s.append(wall)
            self.served += count
            self.reports.append(self.pipe.last_shard_report)

    def close(self) -> None:
        pipe = getattr(self, "pipe", None)
        if pipe is not None:
            pipe.close()

    def failed_ops(self) -> tuple[int, int, list[str]]:
        attempted = self.batches * self.batch_packets
        unserved = attempted - self.served
        notes = [f"{unserved} packets unserved"] if unserved else []
        return attempted, unserved, notes

    def artifacts(self) -> dict:
        return {"cms.tofino": self.compiled}

    def units(self):
        return self.batch_packets, self.batch_s

    def layers(self) -> dict:
        single = Pipeline(self.compiled, engine="vector")
        single_s = []
        for _ in range(min(5, self.batches)):
            with self.rec.span("pisa.process_many:workers=1", "pisa"):
                single_s.append(
                    timed(self.batch, single, self.packets, workers=1)[1])
        w1 = self.batch_packets / median(single_s)
        w2 = self.batch_packets / median(self.batch_s)
        busy_max = [max(r["busy_seconds"]) for r in self.reports]
        counts = self.reports[-1]["counts"]
        return {
            "pisa.vector_w1_pkts_per_s": w1,
            "pisa.shard_speedup": w2 / w1,
            "pisa.shard.worker_busy_max_s": median(busy_max),
            "pisa.shard.worker_busy_sum_s": median(
                sum(r["busy_seconds"]) for r in self.reports),
            "pisa.shard.parent_overhead_s": median(
                wall - busy for wall, busy in zip(self.batch_s, busy_max)),
            "pisa.shard.imbalance": max(counts) / (sum(counts) / len(counts)),
            "pisa.shard.pool_spawns": self.reports[-1].get("pool_spawns", 0),
            "pisa.shard.relowers": sum(sum(r.get("pool_relowers", ()))
                                       for r in self.reports),
            "pisa.shard.chunks": self.reports[-1].get("pool_chunks", 0),
            "pisa.shard.pool_mode_frac": (
                sum(r["mode"] == "pool" for r in self.reports)
                / len(self.reports)),
            "pisa.shard.spawn_s": self.warm_s - median(self.batch_s),
            "pisa.packet_build_us_per_pkt": (
                self.packet_build_s / self.batch_packets * 1e6),
            "pisa.vector_engine_us_per_pkt": median(single_s)
            / self.batch_packets * 1e6,
        }


WORKLOADS = {cls.name: cls for cls in (
    CompileCold, RuntimeReconfig, FleetZipf, NetCacheBatched, CmsShardedW2)}
