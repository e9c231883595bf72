"""End-to-end elastic runtime: the ISSUE acceptance scenario.

A NetCache pipeline serves a churning Zipf stream; mid-run the per-stage
memory is cut in half. The runtime must detect, recompile, migrate, and
hot-swap — and the post-swap hit rate must recover to within 10% of the
pre-cut steady state. Rollback and the forced-timeout fallback are
exercised on the same machinery.
"""

import dataclasses

import pytest

from repro.apps.netcache import NetCacheApp
from repro.core import CompileOptions
from repro.runtime import (
    ElasticRuntime,
    ReconfigPlanner,
    RuntimeConfig,
    TelemetryBus,
)
from repro.workloads import ChurningZipf


def make_stream():
    return ChurningZipf(2000, alpha=1.3, phase_packets=4000, churn=0.2,
                        hot_ranks=200, seed=11)


def memory_cut_run(mini64, mini32, **config):
    bus = TelemetryBus()
    runtime = ElasticRuntime(
        mini64,
        config=RuntimeConfig(window_packets=500, drift_reconfig=False,
                             **config),
        telemetry=bus,
    )
    runtime.schedule_target_change(6000, mini32)
    report = runtime.run(make_stream(), packets=12_000)
    return runtime, report, bus


@pytest.fixture(scope="module")
def cut_run(mini64, mini32):
    """One full memory-cut run shared by the assertions below."""
    return memory_cut_run(mini64, mini32)


@pytest.fixture(scope="module")
def cold_cut_run(mini64, mini32):
    """The same run with a cold swap (``p4all run --no-migrate``)."""
    return memory_cut_run(mini64, mini32, migrate_state=False)


class TestMemoryCutRecovery:
    def test_reconfig_committed(self, cut_run):
        _rt, report, _bus = cut_run
        committed = [r for r in report.reconfigs if r.committed]
        assert len(committed) == 1
        rec = committed[0]
        assert rec.cause == "target-change"
        assert rec.packet_index == 6000
        assert rec.backend == "ilp"
        assert rec.migration is not None
        assert rec.migration.kv_migrated > 0

    def test_layout_actually_shrank(self, cut_run, mini32):
        rt, report, _bus = cut_run
        assert rt.target is mini32
        # Half the memory: the cache and sketch both shrank.
        assert report.final_symbols["kv_cols"] < 409
        assert report.final_symbols["cms_cols"] < 2048

    def test_hit_rate_recovers_within_10_percent(self, cut_run):
        """The acceptance bar: post-swap steady hit rate within 10% of
        the pre-cut steady baseline despite half the memory."""
        _rt, report, _bus = cut_run
        assert report.recovery_ratio() >= 0.9

    def test_no_cold_start_collapse(self, cut_run):
        # The first window served by the swapped pipeline must stay near
        # the baseline (migration kept the cache warm); a cold swap
        # measures ~0.57 here vs a ~0.82 baseline.
        _rt, report, _bus = cut_run
        committed = [r for r in report.reconfigs if r.committed][0]
        first_after = report.timeline[6000 // 500]
        assert first_after >= committed.baseline_rate * 0.9

    def test_cold_swap_starts_colder(self, cut_run, cold_cut_run):
        # Migration is what keeps the first post-swap window warm: the
        # cold swap commits with no migration and serves that window
        # from an empty cache.
        _rt, cold, _bus = cold_cut_run
        [record] = [r for r in cold.reconfigs if r.committed]
        assert record.migration is None
        _rt, migrated, _bus = cut_run
        first_after = 6000 // 500
        assert cold.timeline[first_after] < migrated.timeline[first_after]

    def test_telemetry_narrates_the_cycle(self, cut_run):
        _rt, _report, bus = cut_run
        kinds = [e.kind for e in bus.events]
        for expected in ("configured", "target_change_requested",
                         "reconfig_triggered", "migration",
                         "swap_committed", "window"):
            assert expected in kinds
        swap = bus.last_of("swap_committed")
        assert swap.data["symbols"]["kv_cols"] < 409
        assert 0.0 <= swap.data["kv_loss"] <= 1.0
        # The trigger precedes the swap which precedes the next window.
        assert (bus.last_of("reconfig_triggered").seq < swap.seq)

    def test_report_serializes(self, cut_run):
        import json

        _rt, report, _bus = cut_run
        decoded = json.loads(json.dumps(report.to_dict()))
        assert decoded["packets"] == 12_000
        assert decoded["reconfigs"][0]["committed"] is True
        assert "recovery_ratio" in decoded


class TestServingModesAgree:
    def test_default_serve_equals_per_packet_across_a_reconfig(
            self, mini64, mini32):
        """The default (batched, vector) serve and the per-packet
        reference see the same run: every window's hit rate, the
        migration, and the registers the swapped pipeline ends with."""
        outcomes = []
        for serve_batch in (None, 0):
            runtime = ElasticRuntime(
                mini64,
                config=RuntimeConfig(window_packets=500, drift_reconfig=False,
                                     serve_batch=serve_batch),
                telemetry=TelemetryBus(),
            )
            runtime.schedule_target_change(2000, mini32)
            report = runtime.run(make_stream(), packets=4000)
            [record] = report.reconfigs
            assert record.committed
            registers = runtime.app.pipeline.registers.export_state()
            outcomes.append((
                report.timeline, report.hits, report.final_symbols,
                record.migration.kv_migrated,
                {name: cells.tolist() for name, cells in registers.items()},
                sorted(runtime.app._cached_keys),
            ))
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][0]) == 8 and outcomes[0][1] > 0


class TestRollback:
    def test_injected_failure_rolls_back(self, mini64, mini32, monkeypatch):
        bus = TelemetryBus()
        runtime = ElasticRuntime(
            mini64,
            config=RuntimeConfig(window_packets=500, drift_reconfig=False),
            telemetry=bus,
        )
        old_app = runtime.app
        stream = make_stream()
        runtime.run(stream, packets=2000)

        def fail(_app, key=None):
            raise RuntimeError("injected pre-commit failure")

        monkeypatch.setattr(NetCacheApp, "canary", fail)
        runtime.set_target(mini32)
        report = runtime.run(stream, packets=1000)

        # The swap aborted: old app and old target still in place,
        # rollback recorded, and the run continued serving packets.
        assert runtime.app is old_app
        assert runtime.target is mini64
        rolled = [r for r in report.reconfigs if not r.committed]
        assert len(rolled) == 1
        assert "injected pre-commit failure" in rolled[0].error
        assert bus.events_of("rollback")
        assert not bus.events_of("swap_committed")
        assert report.packets == 1000

        # The failed attempt is not retried in a loop: one record only.
        assert len(report.reconfigs) == 1

    def test_runtime_survives_rollback_and_keeps_serving(self, mini64, mini32,
                                                         monkeypatch):
        runtime = ElasticRuntime(
            mini64,
            config=RuntimeConfig(window_packets=500, drift_reconfig=False),
        )
        stream = make_stream()
        runtime.run(stream, packets=2000)

        def fail(_app, key=None):
            raise ValueError("no")

        with monkeypatch.context() as patch:
            patch.setattr(NetCacheApp, "canary", fail)
            runtime.set_target(mini32)
            runtime.run(stream, packets=500)
        report = runtime.run(stream, packets=1500)
        assert report.hit_rate > 0.0


class TestTimeoutFallbackAtRuntime:
    def test_forced_timeout_configures_via_greedy(self, mini64):
        """Acceptance: a forced ILP timeout degrades to greedy without
        an unhandled exception, recorded in telemetry."""
        bus = TelemetryBus()
        planner = ReconfigPlanner(
            options=CompileOptions(time_limit=1e-4),
            telemetry=bus,
        )
        runtime = ElasticRuntime(
            mini64,
            config=RuntimeConfig(window_packets=500, drift_reconfig=False),
            telemetry=bus,
            planner=planner,
        )
        assert bus.events_of("ilp_fallback")
        [configured] = bus.events_of("configured")
        assert configured.data["switches"]["s0"]["backend"] == "greedy"
        assert configured.data["switches"]["s0"]["fallback"] is True
        # The greedy-configured pipeline actually serves traffic.
        report = runtime.run(make_stream(), packets=2000)
        assert report.hit_rate > 0.3
