"""SLO monitor: EWMA math, single-fire semantics, every emission
channel, and the end-to-end path from an induced per-tenant hit-rate
drop to a violation visible in ``p4all obs`` output."""

import dataclasses

import pytest

from repro import obs
from repro.obs import MetricsRegistry
from repro.obs.slo import DEFAULT_SLO_RULES, SloMonitor, SloRule
from repro.obs.view import snapshot
from repro.runtime import TelemetryBus


def make_monitor(rules, telemetry=None):
    bus = telemetry if telemetry is not None else TelemetryBus()
    registry = MetricsRegistry()
    monitor = SloMonitor(bus, rules=rules, registry=registry)
    return monitor, bus, registry


RULE = SloRule("hit_rate", threshold=0.5, direction="min", alpha=0.5,
               min_samples=2, warmup=0)


class TestRule:
    def test_direction_validated(self):
        with pytest.raises(ValueError, match="direction"):
            SloRule("x", threshold=1.0, direction="sideways")

    def test_alpha_validated(self):
        with pytest.raises(ValueError, match="alpha"):
            SloRule("x", threshold=1.0, alpha=0.0)

    def test_breached_by_direction(self):
        low = SloRule("low", threshold=0.5, direction="min")
        high = SloRule("high", threshold=0.5, direction="max")
        assert low.breached(0.4) and not low.breached(0.5)
        assert high.breached(0.6) and not high.breached(0.5)

    def test_default_rules_cover_the_promises(self):
        names = {r.name for r in DEFAULT_SLO_RULES}
        assert names == {"hit_rate", "utility_headroom", "reconfig_seconds"}


class TestMonitor:
    def test_first_sample_seeds_then_ewma_smooths(self):
        monitor, _, registry = make_monitor([RULE])
        monitor.observe("hit_rate", "cms", 1.0)
        monitor.observe("hit_rate", "cms", 0.0)
        gauge = registry.get("p4all_slo_ewma")
        assert gauge.value(rule="hit_rate", subject="cms") == 0.5

    def test_no_verdict_before_min_samples(self):
        monitor, _, _ = make_monitor([RULE])
        assert monitor.observe("hit_rate", "cms", 0.0) is None
        assert not monitor.violations

    def test_warmup_consumed_before_evaluation(self):
        rule = SloRule("hit_rate", threshold=0.5, alpha=1.0,
                       min_samples=1, warmup=3)
        monitor, _, _ = make_monitor([rule])
        for _ in range(3):
            assert monitor.observe("hit_rate", "cms", 0.0) is None
        assert monitor.observe("hit_rate", "cms", 0.0) is not None

    def test_fires_once_per_excursion(self):
        monitor, _, registry = make_monitor([RULE])
        monitor.observe("hit_rate", "cms", 0.0)
        record = monitor.observe("hit_rate", "cms", 0.0)
        assert record is not None and record["rule"] == "hit_rate"
        assert monitor.observe("hit_rate", "cms", 0.0) is None
        assert len(monitor) == 1
        counter = registry.get("p4all_slo_violations_total")
        assert counter.value(rule="hit_rate", subject="cms") == 1

    def test_recovery_rearms_the_rule(self):
        monitor, bus, _ = make_monitor([RULE])
        monitor.observe("hit_rate", "cms", 0.0)
        monitor.observe("hit_rate", "cms", 0.0)          # fires
        monitor.observe("hit_rate", "cms", 1.0)          # ewma 0.5: recovers
        monitor.observe("hit_rate", "cms", 0.0)          # ewma 0.25: re-fires
        assert len(monitor) == 2
        assert len(bus.events_of("slo_violation")) == 2
        assert len(bus.events_of("slo_recovered")) == 1

    def test_subjects_tracked_independently(self):
        monitor, _, _ = make_monitor([RULE])
        monitor.observe("hit_rate", "cms", 0.0)
        monitor.observe("hit_rate", "cms", 0.0)
        monitor.observe("hit_rate", "kv", 0.9)
        monitor.observe("hit_rate", "kv", 0.9)
        assert [v["subject"] for v in monitor.violations] == ["cms"]
        status = monitor.status()
        assert status["hit_rate:cms"]["violating"]
        assert not status["hit_rate:kv"]["violating"]

    def test_unknown_rule_is_ignored(self):
        monitor, _, _ = make_monitor([RULE])
        assert monitor.observe("no_such_rule", "cms", 0.0) is None

    def test_telemetry_bus_preferred_over_direct_tracer(self):
        bus = TelemetryBus()
        events = []
        bus.subscribe(events.append)
        monitor, _, _ = make_monitor([RULE], telemetry=bus)
        obs.trace.enable()
        with obs.trace.span("window") as span:
            monitor.observe("hit_rate", "cms", 0.0, packet_index=1000)
            monitor.observe("hit_rate", "cms", 0.0, packet_index=1500)
        [event] = [e for e in events if e.kind == "slo_violation"]
        assert event.data["rule"] == "hit_rate"
        assert event.data["subject"] == "cms"
        assert event.packet_index == 1500
        # The bus is the only road to the trace: one instant, by its name.
        assert [e.name for e in span.events] == ["telemetry.slo_violation"]
        assert not obs.trace.orphan_events

    def test_violation_lands_in_flight_ring(self):
        monitor, _, _ = make_monitor([RULE])
        obs.flight.clear()
        monitor.observe("hit_rate", "cms", 0.0)
        monitor.observe("hit_rate", "cms", 0.0)
        [entry] = [e for e in obs.flight.entries()
                   if e["name"] == "slo_violation"]
        assert entry["kind"] == "telemetry"
        assert entry["data"]["subject"] == "cms"

    def test_one_violation_is_one_flight_entry(self, tmp_path, capsys):
        """A breach reaches the flight ring once, so ``p4all obs
        --flight`` counts one violation, not one per route."""
        from repro.cli import main

        monitor, _, _ = make_monitor([RULE])
        obs.flight.clear()
        monitor.observe("hit_rate", "cms", 0.0)
        monitor.observe("hit_rate", "cms", 0.0)
        assert len(monitor) == 1
        path = tmp_path / "flight.jsonl"
        obs.flight.dump(path, registry=MetricsRegistry())
        flight = snapshot(flight=path.read_text())["flight"]
        assert len(flight["slo_violations"]) == 1
        assert flight["by_kind"] == {"telemetry": 1}
        assert main(["obs", "--flight", str(path)]) == 0
        assert "SLO violations (1):" in capsys.readouterr().out

    def test_max_direction_rule(self):
        rule = SloRule("reconfig_seconds", threshold=1.0, direction="max",
                       alpha=1.0, min_samples=1)
        monitor, _, _ = make_monitor([rule])
        assert monitor.observe("reconfig_seconds", "swap", 0.5) is None
        record = monitor.observe("reconfig_seconds", "swap", 5.0)
        assert record is not None and record["direction"] == "max"


class TestRuntimeE2E:
    def test_hit_rate_drop_surfaces_in_p4all_obs_output(self, tmp_path,
                                                        capsys):
        """An induced per-tenant hit-rate SLO breach must reach the run
        report, the trace, and the rendered ``p4all obs`` summary."""
        from repro.cli import main
        from repro.obs import write_chrome_trace
        from repro.pisa.resources import tofino
        from repro.runtime import ElasticRuntime, RuntimeConfig
        from repro.workloads import ChurningZipf

        target = dataclasses.replace(
            tofino(), stages=6, memory_bits_per_stage=64 * 1024)
        # A strict SLO the cold-start windows cannot meet: the smoothed
        # per-tenant hit rate drops below the floor and must fire.
        rules = (SloRule("hit_rate", threshold=0.95, alpha=0.5,
                         min_samples=1, warmup=1),)
        obs.trace.enable()
        runtime = ElasticRuntime(
            target,
            config=RuntimeConfig(window_packets=500, drift_reconfig=False),
        )
        runtime.slo = SloMonitor(runtime.telemetry, rules=rules)
        report = runtime.run(ChurningZipf(800, alpha=1.3, seed=3), 2000)
        assert report.slo_violations, report
        assert report.slo_violations[0]["rule"] == "hit_rate"
        # The hit-rate subject is the switch: one series, not one copy
        # of the same app-wide rate per linked module.
        assert {v["subject"] for v in report.slo_violations} == {"s0"}

        path = tmp_path / "trace.json"
        write_chrome_trace(obs.trace, path)
        capsys.readouterr()
        assert main(["obs", str(path)]) == 0
        out = capsys.readouterr().out
        assert "SLO violations" in out
        assert "hit_rate on" in out
        assert "telemetry.slo_violation" in out
