"""Fleet controller: shared-cache installs, per-switch recompiles,
sharded serving, scheduled cuts, drift, skew rebalancing, and the
single-switch runtime as a one-switch fleet."""

import dataclasses

import numpy as np
import pytest

from repro.core.cache import CompileCache
from repro.fabric import FabricTopology, FleetConfig, FleetController
from repro.pisa import Pipeline, small_target
from repro.runtime import (
    ElasticRuntime,
    ReconfigPlanner,
    RuntimeConfig,
    TelemetryBus,
    TrafficMonitor,
)
from repro.workloads import ZipfGenerator


def make_controller(mini64, cache, n=3, standby=0, **config):
    fabric = FabricTopology.flat(n, mini64, standby=standby)
    return FleetController(
        fabric,
        config=FleetConfig(window_packets=500, vnodes=32, **config),
        telemetry=TelemetryBus(),
        cache=cache,
    )


class TestInstall:
    def test_install_all_hits_layout_cache(self, mini64):
        # 4 identical switches from a cold cache: the first solves, the
        # other 3 land layout-cache hits.
        cache = CompileCache()
        controller = make_controller(mini64, cache, n=4)
        plans = controller.install_all()
        assert set(plans) == {"s0", "s1", "s2", "s3"}
        snap = cache.snapshot()
        assert snap["layout_misses"] == 1
        assert snap["layout_hits"] >= 3
        # Every switch ends up with the same stretched layout.
        symbols = {frozenset(p.compiled.symbol_values.items())
                   for p in plans.values()}
        assert len(symbols) == 1

    def test_install_two_target_groups(self, mini64, mini32):
        cache = CompileCache()
        fabric = FabricTopology.flat(2, mini64)
        fabric.add_switch("little0", mini32, role="switch")
        fabric.add_link("lb0", "little0")
        fabric.add_switch("little1", mini32, role="switch")
        fabric.add_link("lb0", "little1")
        controller = FleetController(
            fabric, config=FleetConfig(window_packets=500, vnodes=32),
            telemetry=TelemetryBus(), cache=cache,
        )
        plans = controller.install_all()
        snap = cache.snapshot()
        # One real solve per distinct target, cache hits for the rest.
        assert snap["layout_misses"] == 2
        assert snap["layout_hits"] >= 2
        big = plans["s0"].compiled.symbol_values
        small = plans["little0"].compiled.symbol_values
        assert big["kv_cols"] > small["kv_cols"]

    def test_install_emits_fleet_configured(self, mini64, shared_cache):
        controller = make_controller(mini64, shared_cache)
        controller.install_all()
        events = controller.telemetry.events_of("configured")
        assert len(events) == 1
        assert set(events[0].data["switches"]) == {"s0", "s1", "s2"}

    def test_empty_fleet_rejected(self, mini64):
        fabric = FabricTopology()
        fabric.add_switch("lb0", mini64, role="lb")
        with pytest.raises(ValueError, match="no serving switches"):
            FleetController(fabric)


class TestServing:
    def test_run_conserves_packets(self, mini64, shared_cache):
        controller = make_controller(mini64, shared_cache)
        stream = ZipfGenerator(universe=3000, alpha=1.1, seed=11)
        report = controller.run(stream, 3000)
        assert report.packets == 3000
        assert report.dropped_packets == 0
        assert sum(s.packets for s in report.per_switch.values()) == 3000
        assert len(report.windows) == 6
        assert 0.0 < report.hit_rate < 1.0
        assert report.aggregate_pkts_per_sec > report.serial_pkts_per_sec

    def test_sharding_is_disjoint_across_switches(self, mini64,
                                                  shared_cache):
        controller = make_controller(mini64, shared_cache)
        controller.install_all()
        keys = ZipfGenerator(universe=3000, alpha=1.1, seed=2).sample(1000)
        shards = controller.ring.shard(keys)
        assert sum(len(s) for s in shards.values()) == len(keys)
        # Every key consistently routes to one switch.
        for name, shard in shards.items():
            assert all(controller.ring.lookup(int(k)) == name
                       for k in shard[:20])

    def test_run_continues_previous_report(self, mini64, shared_cache):
        controller = make_controller(mini64, shared_cache)
        stream = ZipfGenerator(universe=3000, alpha=1.1, seed=4)
        report = controller.run(stream, 1000)
        report = controller.run(stream, 1000, report=report)
        assert report.packets == 2000
        assert len(report.windows) == 4


class TestReconfiguration:
    def test_cut_switch_commits_and_migrates(self, mini64, mini32,
                                             shared_cache):
        controller = make_controller(mini64, shared_cache)
        stream = ZipfGenerator(universe=3000, alpha=1.1, seed=7)
        controller.run(stream, 2000)
        before_cols = controller.topology.node("s1").app.kv_cols
        record = controller.cut_switch("s1", mini32)
        assert record.committed, record.error
        assert record.migration is not None
        assert record.migration.kv_migrated > 0
        after = controller.topology.node("s1").app
        assert after.kv_cols < before_cols
        assert controller.topology.node("s1").target == mini32
        # The other switches kept their layouts.
        assert controller.topology.node("s0").app.kv_cols == before_cols

    @pytest.mark.parametrize("cells, error", [
        (1 << 20, "exceed"),       # past the stage's memory
        (1, "unequal sizes"),      # loads and canaries; only validate_layout sees it
    ], ids=["past-memory", "unequal-family"])
    def test_sabotaged_artifact_rolls_back(self, mini64, mini32, shared_cache,
                                           monkeypatch, cells, error):
        # The plan is fine; what reaches the swap is not (one register
        # resized after planning). The pre-commit validation must catch
        # it, as it does on the single switch.
        controller = make_controller(mini64, shared_cache)
        stream = ZipfGenerator(universe=3000, alpha=1.1, seed=7)
        controller.run(stream, 1000)
        node = controller.topology.node("s1")
        old_app = node.app
        planner = controller.planner
        plan = planner.plan

        def sabotaged(source, target, cause="unspecified"):
            result = plan(source, target, cause=cause)
            compiled = result.compiled
            resized = dataclasses.replace(compiled.registers[0], cells=cells)
            result.compiled = dataclasses.replace(
                compiled, registers=[resized] + compiled.registers[1:])
            return result

        monkeypatch.setattr(planner, "plan", sabotaged)
        record = controller.cut_switch("s1", mini32)
        assert not record.committed
        assert error in record.error
        assert node.app is old_app and node.target == mini64
        rollback = controller.telemetry.last_of("rollback")
        assert rollback.data["switch"] == "s1"
        assert controller.run(stream, 500).packets == 500

    def test_rejected_compile_keeps_the_old_app_serving(
            self, mini64, mini32, shared_cache, monkeypatch):
        # A compile that raises a P4AllError (here the index check's
        # SemanticError) reaches cut_switch as a PlanError: the cut is
        # recorded as failed and the switch serves on with its old app.
        from repro.analysis.bounds_check import IndexBoundsError

        controller = make_controller(mini64, shared_cache)
        stream = ZipfGenerator(universe=3000, alpha=1.1, seed=7)
        controller.run(stream, 1000)
        node = controller.topology.node("s1")
        old_app = node.app

        def rejected(*_args, **_kwargs):
            raise IndexBoundsError("b_mark[2]: index 2 out of bounds for "
                                   "elastic array 'a_cnt' (extent 2)")

        monkeypatch.setattr(controller.planner, "_compile", rejected)
        record = controller.cut_switch("s1", mini32)
        assert not record.committed
        assert "out of bounds" in record.error
        assert node.app is old_app and node.target == mini64
        failed = controller.telemetry.last_of("reconfig_failed")
        assert failed.data["switch"] == "s1"
        assert controller.run(stream, 500).packets == 500

    def test_recompile_all_hits_layout_cache(self, mini64, mini32):
        cache = CompileCache()
        controller = make_controller(mini64, cache, n=4)
        controller.install_all()
        before = cache.snapshot()
        records = controller.recompile_all(mini32, cause="fleet-cut")
        assert all(r.committed for r in records.values())
        snap = cache.snapshot()
        # One new solve for the new target; the other 3 switches hit.
        assert snap["layout_misses"] == before["layout_misses"] + 1
        assert snap["layout_hits"] >= before["layout_hits"] + 3
        # Switch by switch, in order: the first solves, the rest hit.
        cached = [r.solver_stats["layout_cached"] for r in records.values()]
        assert list(records) == ["s0", "s1", "s2", "s3"]
        assert cached == [False, True, True, True]

    def test_recompile_all_failed_plan_keeps_serving(self, mini64, mini32,
                                                     shared_cache):
        """A switch whose plan fails keeps its app; the others swap."""
        controller = make_controller(mini64, shared_cache, n=2)
        stream = ZipfGenerator(universe=3000, alpha=1.1, seed=7)
        controller.run(stream, 1000)
        old = controller.topology.node("s1").app
        # Two stateful ALUs a stage: NetCache does not fit at all.
        records = controller.recompile_all(
            {"s0": mini32, "s1": small_target(stages=6, memory_kb=64)})
        assert records["s0"].committed
        assert records["s1"].outcome == "plan-failed"
        assert controller.topology.node("s0").target == mini32
        assert controller.topology.node("s1").app is old
        report = controller.run(stream, 1000)
        assert report.per_switch["s1"].packets > 0
        assert report.dropped_packets == 0

    def test_scheduled_cut_fires_in_run(self, mini64, mini32,
                                        shared_cache):
        controller = make_controller(mini64, shared_cache)
        stream = ZipfGenerator(universe=3000, alpha=1.1, seed=9)
        controller.schedule_cut(1000, "s0", mini32)
        report = controller.run(stream, 3000)
        assert len(report.reconfigs) == 1
        name, record = report.reconfigs[0]
        assert name == "s0" and record.committed
        assert record.packet_index == 1000
        assert report.packets == 3000

    def test_final_symbols_reflect_cut(self, mini64, mini32,
                                       shared_cache):
        controller = make_controller(mini64, shared_cache)
        stream = ZipfGenerator(universe=3000, alpha=1.1, seed=13)
        controller.schedule_cut(500, "s2", mini32)
        report = controller.run(stream, 2000)
        assert (report.final_symbols["s2"]["kv_cols"]
                < report.final_symbols["s0"]["kv_cols"])


def _without_seconds(record) -> dict:
    out = record.to_dict()
    del out["seconds"]
    return out


class TestOneSwap:
    def test_runtime_swap_equals_fleet_cut(self, mini64, mini32):
        """A runtime is a one-switch fleet: ``ElasticRuntime`` with a
        scheduled target change and ``FleetController(flat(1))`` with the
        same ``schedule_cut``, over the same stream, serve the same
        windows, record the same reconfiguration and end with the same
        registers. (Fresh caches on both sides, so the records' cache
        counters agree too.)"""
        config = RuntimeConfig(window_packets=500)
        runtime = ElasticRuntime(
            mini64, config=config, telemetry=TelemetryBus(),
            planner=ReconfigPlanner(cache=CompileCache()))
        runtime.schedule_target_change(2000, mini32)
        ours = runtime.run(ZipfGenerator(universe=2000, alpha=1.2, seed=3),
                           4000)

        fleet = FleetController(FabricTopology.flat(1, mini64),
                                config=config, telemetry=TelemetryBus(),
                                cache=CompileCache())
        fleet.schedule_cut(2000, "s0", mini32)
        theirs = fleet.run(ZipfGenerator(universe=2000, alpha=1.2, seed=3),
                           4000)

        assert ours.timeline == theirs.timeline and len(ours.timeline) == 8
        [swapped] = ours.reconfigs
        [(name, cut)] = theirs.reconfigs
        assert name == "s0" and swapped.committed
        assert swapped.migration.kv_migrated > 0
        assert _without_seconds(swapped) == _without_seconds(cut)
        assert ours.final_symbols == theirs.final_symbols["s0"]
        mine = runtime.app.pipeline.registers.export_state()
        other = fleet.topology.node("s0").app.pipeline.registers.export_state()
        assert mine.keys() == other.keys()
        assert all(np.array_equal(mine[reg], other[reg]) for reg in mine)


class ShardChurn:
    """Uniform keys over 50 hot keys per switch of a 2-switch ring; from
    packet ``at`` on, ``s1``'s hot set is replaced by 50 keys it has
    never seen, while ``s0``'s stays put."""

    def __init__(self, ring, at):
        self.pools = ring.shard(np.arange(1, 20_001))
        self.rng = np.random.default_rng(5)
        self.at = at
        self.sent = 0

    def sample(self, count):
        s1 = self.pools["s1"]
        hot = np.concatenate([
            self.pools["s0"][:50],
            s1[:50] if self.sent < self.at else s1[50:100],
        ])
        self.sent += count
        return self.rng.choice(hot, size=count)


class TestDrift:
    def test_only_the_churned_switch_reconfigures(self, mini64,
                                                  shared_cache):
        """Drift is a per-switch fleet trigger: the switch whose hot set
        moved replans, the other keeps its app."""
        controller = make_controller(mini64, shared_cache, n=2)
        controller.install_all()
        untouched = controller.topology.node("s0").app
        report = controller.run(ShardChurn(controller.ring, at=5000), 6000)
        [(name, record)] = report.reconfigs
        assert name == "s1" and record.cause == "hit-rate-drop"
        assert record.committed and record.packet_index == 5500
        assert record.baseline_rate > 0.5
        assert controller.topology.node("s0").app is untouched


class TestServingModesAgree:
    def test_default_serve_equals_per_packet_across_cut_and_migration(
            self, mini64, mini32, shared_cache):
        """Default (batched, vector) serving and the per-packet
        reference give the same fleet run: every window, the cut, the
        migration, and each switch's final registers."""
        outcomes = []
        for serve_batch in (None, 0):
            controller = make_controller(mini64, shared_cache, standby=1,
                                         serve_batch=serve_batch)
            controller.schedule_cut(1000, "s0", mini32)
            controller.schedule_migration(2000, "s1", "s3")
            report = controller.run(
                ZipfGenerator(universe=3000, alpha=1.1, seed=17), 4000)
            [(name, record)] = report.reconfigs
            [migration] = report.migrations
            assert name == "s0" and record.committed and migration.committed
            registers = {}
            for switch in controller.topology.switches.values():
                if switch.app is not None:
                    state = switch.app.pipeline.registers.export_state()
                    registers[switch.name] = {
                        reg: cells.tolist() for reg, cells in state.items()}
            outcomes.append((
                report.timeline, report.hits, report.dropped_packets,
                {n: (s.packets, s.hits) for n, s in report.per_switch.items()},
                migration.kv_dropped, migration.replayed_packets, registers,
            ))
            controller.close()
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][0]) == 8 and outcomes[0][1] > 0


class Hammer:
    """Every key identical: one switch takes the whole window."""

    def sample(self, count):
        return np.full(count, 7, dtype=np.int64)


class TestRebalance:
    def test_skew_triggers_bounded_rebalance(self, mini64, shared_cache):
        controller = make_controller(mini64, shared_cache,
                                     skew_threshold=1.5,
                                     max_move_fraction=0.15)
        report = controller.run(Hammer(), 3000)
        assert report.rebalances
        for entry in report.rebalances:
            assert entry["moved_fraction"] <= 0.15
            assert entry["load_ratio"] >= 1.5

    def test_cooldown_counts_controller_windows(self, mini64,
                                                shared_cache):
        """A second ``run()`` with a fresh report keeps the rebalance
        clock: the cooldown counts the controller's windows, not the
        report's."""
        controller = make_controller(mini64, shared_cache,
                                     skew_threshold=1.5,
                                     rebalance_cooldown=2)
        first = controller.run(Hammer(), 3000)
        assert [e["window"] for e in first.rebalances] == [0, 2, 4]
        second = controller.run(Hammer(), 1000)
        assert [e["window"] for e in second.rebalances] == [6]
        assert [w.index for w in second.windows] == [6, 7]

    def test_no_rebalance_when_disabled(self, mini64, shared_cache):
        controller = make_controller(mini64, shared_cache)
        stream = ZipfGenerator(universe=50, alpha=1.4, seed=1)
        report = controller.run(stream, 2000)
        assert report.rebalances == []


class TestDriftCooldown:
    def test_no_drift_replan_within_ten_windows(self, mini64, mini32,
                                                shared_cache, monkeypatch):
        """With every monitor signalling drift, a switch replans at
        window 0, is cut at window 2, and replans again no sooner than
        window 2 + 10; the other switch keeps its own clock."""
        monkeypatch.setattr(TrafficMonitor, "drift_detected",
                            lambda self: True)
        controller = make_controller(mini64, shared_cache, n=2)
        controller.schedule_cut(1000, "s0", mini32)
        report = controller.run(ZipfGenerator(universe=3000, seed=3),
                                14 * 500)
        windows = {"s0": [], "s1": []}
        for name, record in report.reconfigs:
            assert record.committed
            windows[name].append((record.packet_index // 500, record.cause))
        assert windows == {
            "s0": [(0, "hit-rate-drop"), (2, "target-change"),
                   (12, "hit-rate-drop")],
            "s1": [(0, "hit-rate-drop"), (10, "hit-rate-drop")],
        }
        controller.close()


def kernel_calls_per_window(controller, stream) -> int:
    """``process_columns`` calls one window of ``controller.run`` makes
    — the serve's kernel calls, as a count a gate can read."""
    calls = 0
    process_columns = Pipeline.process_columns

    def counted(pipeline, *args, **kwargs):
        nonlocal calls
        calls += 1
        return process_columns(pipeline, *args, **kwargs)

    Pipeline.process_columns = counted
    try:
        controller.run(stream, controller.config.window_packets)
    finally:
        Pipeline.process_columns = process_columns
    return calls


class TestBankSets:
    """Switches with one layout are banks of one register set, served by
    one kernel call per window; a cut switch leaves its set."""

    def test_one_call_per_set_with_lanes(self, mini64, mini32,
                                         shared_cache):
        controller = make_controller(mini64, shared_cache, n=4, standby=1)
        controller.install_all()
        apps = [controller.topology.node(f"s{i}").app for i in range(5)]
        banks = apps[0].pipeline.banks
        assert banks.k == 5
        assert [app.pipeline.banks for app in apps] == [banks] * 5
        assert [app.pipeline.bank for app in apps] == list(range(5))
        stream = ZipfGenerator(universe=3000, alpha=1.1, seed=21)
        controller.run(stream, 1000)
        assert kernel_calls_per_window(controller, stream) == 1

        controller.cut_switch("s0", mini32)
        assert controller.topology.node("s0").app.pipeline.banks.k == 1
        assert controller.migrate("s1", "s4").committed
        assert controller.topology.node("s4").app.pipeline.banks is banks
        assert kernel_calls_per_window(controller, stream) == 2

    def test_window_span_counts_batches_and_replays(self, mini64,
                                                    shared_cache):
        from repro import obs

        controller = make_controller(mini64, shared_cache)
        controller.install_all()
        obs.trace.enable()
        try:
            controller.run(ZipfGenerator(universe=3000, alpha=1.1, seed=5),
                           500)
            [window] = obs.trace.spans_named("fleet.window")
            replays = obs.trace.spans_named("apps.replay")
        finally:
            obs.trace.disable()
            obs.trace.reset()
        assert window.attrs["batches"] == 1
        assert len(replays) == 3
        assert {span.parent_id for span in replays} == {window.span_id}
        assert sum(span.attrs["lanes"] for span in replays) == 500

    def test_busy_is_shared_out_by_lanes(self, mini64, shared_cache):
        controller = make_controller(mini64, shared_cache)
        report = controller.run(
            ZipfGenerator(universe=3000, alpha=1.1, seed=6), 1500)
        for stats in report.per_switch.values():
            assert stats.packets and stats.busy_seconds > 0.0

    def test_routed_fleet_is_unbanked_and_exact(self, mini64, shared_cache):
        """A program with a table is never banked: every switch keeps a
        set of its own, and the batched serve still equals per-packet."""
        from repro.apps import netcache_linked

        outcomes = []
        for serve_batch in (None, 0):
            controller = FleetController(
                FabricTopology.flat(3, mini64),
                source=netcache_linked(with_routing=True),
                config=FleetConfig(window_packets=500, vnodes=32,
                                   serve_batch=serve_batch),
                telemetry=TelemetryBus(), cache=shared_cache)
            report = controller.run(
                ZipfGenerator(universe=3000, alpha=1.1, seed=8), 1500)
            apps = [node.app for node in controller.topology.switches.values()
                    if node.app is not None]
            assert [app.pipeline.banks.k for app in apps] == [1, 1, 1]
            outcomes.append((
                report.timeline,
                {n: (s.packets, s.hits) for n, s in report.per_switch.items()},
                [{reg: cells.tolist() for reg, cells in
                  app.pipeline.registers.export_state().items()}
                 for app in apps]))
        assert outcomes[0] == outcomes[1]
