"""``p4all top``: dashboard rendering from a registry, rate
computation across frames, and the embedded scenario driver."""

import dataclasses
import io

import pytest

from repro.obs import MetricsRegistry
from repro.obs.top import TopDashboard, _bar, _fmt_num, run_top


class TestHelpers:
    def test_bar_clamps_and_fills(self):
        assert _bar(0.0) == "·" * 20
        assert _bar(1.0) == "█" * 20
        assert _bar(2.0) == "█" * 20
        assert _bar(0.5).count("█") == 10

    def test_fmt_num(self):
        assert _fmt_num(3.0) == "3"
        assert _fmt_num(1234567) == "1,234,567"
        assert _fmt_num(0.25) == "0.250"


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("p4all_packets_total", labels=("engine",)).inc(
        100, engine="vector")
    reg.counter("p4all_worker_packets_total",
                labels=("worker", "shard_mode")).inc(
        50, worker="0", shard_mode="pool")
    reg.counter("p4all_fabric_packets_total", labels=("switch",)).inc(
        40, switch="s0")
    reg.counter("p4all_fleet_migrations_total",
                labels=("src", "dst", "result")).inc(
        src="s0", dst="s1", result="committed")
    reg.gauge("p4all_window_hit_rate").set(0.75)
    reg.gauge("p4all_slo_ewma", labels=("rule", "subject")).set(
        0.3, rule="hit_rate", subject="cms")
    reg.counter("p4all_slo_violations_total",
                labels=("rule", "subject")).inc(
        rule="hit_rate", subject="cms")
    reg.counter("p4all_telemetry_events_total", labels=("kind",)).inc(
        3, kind="window")
    reg.counter("p4all_reconfigs_total",
                labels=("switch", "cause", "outcome")).inc(
        switch="s0", cause="target-change", outcome="committed")
    reg.histogram("p4all_reconfig_seconds", buckets=(1, 10)).observe(2.0)
    return reg


class TestDashboard:
    def test_renders_every_section(self):
        frame = TopDashboard(_populated_registry()).render()
        assert "p4all top — frame 1" in frame
        for title in ("fleet", "pipeline", "tenants / SLO",
                      "control plane"):
            assert title in frame
        assert "s0" in frame and "reconfigs 1" in frame
        assert "window hit rate  0.750" in frame
        assert "s0/target-change/committed ×1" in frame
        assert "s0→s1" in frame
        assert "w0[pool]" in frame
        assert "VIOLATIONS 1" in frame
        assert "mean reconfig 2.000s" in frame
        assert "window ×3" in frame

    def test_second_frame_shows_rates(self):
        reg = _populated_registry()
        dash = TopDashboard(reg)
        first = dash.render()
        assert "/s)" not in first  # no baseline yet
        reg.get("p4all_packets_total").inc(50, engine="vector")
        second = dash.render()
        assert "frame 2" in second
        assert "/s)" in second

    def test_empty_registry(self):
        frame = TopDashboard(MetricsRegistry()).render()
        assert "(no metrics yet)" in frame

    def test_ok_status_without_violations(self):
        reg = MetricsRegistry()
        reg.gauge("p4all_slo_ewma", labels=("rule", "subject")).set(
            0.8, rule="hit_rate", subject="kv")
        frame = TopDashboard(reg).render()
        assert "ok" in frame and "VIOLATIONS" not in frame


class TestRunTop:
    def test_run_mode_repaints_per_window_and_summarizes(self):
        from repro.pisa.resources import tofino

        target = dataclasses.replace(
            tofino(), stages=6, memory_bits_per_stage=64 * 1024)
        out = io.StringIO()
        rc = run_top(mode="run", packets=2000, window=500, universe=800,
                     alpha=1.3, seed=3, cut=False, clear=False, out=out,
                     target=target)
        assert rc == 0
        text = out.getvalue()
        # One frame per monitoring window plus the final frame.
        assert text.count("p4all top — frame") >= 4
        assert "\x1b[" not in text  # clear=False suppresses ANSI
        assert "pipeline" in text
        assert "done: 2000 packets" in text

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown top mode"):
            run_top(mode="nope", out=io.StringIO())
