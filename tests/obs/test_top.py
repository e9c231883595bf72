"""``p4all top``: live frames of a registry are the ``p4all obs``
metrics view of its Prometheus text, counters show their difference
from the previous frame, and ``top run``/``top fabric`` run the very
scenario ``p4all run``/``p4all fabric`` run."""

import json
import re

import pytest

from repro.cli import main
from repro.obs import MetricsRegistry
from repro.obs.view import _bar, _fmt_num, live


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
    fabric = reg.counter("p4all_fabric_packets_total", labels=("switch",))
    fabric.inc(40, switch="s0")
    # A label value with a comma must stay one value end to end.
    fabric.inc(7, switch="leaf,1")
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
    reconfigs = reg.counter("p4all_reconfigs_total",
                            labels=("switch", "cause", "outcome"))
    reconfigs.inc(switch="s0", cause="target-change", outcome="committed")
    reconfigs.inc(switch="leaf,1", cause="drift", outcome="committed")
    reg.histogram("p4all_reconfig_seconds", buckets=(1, 10)).observe(2.0)
    reg.histogram("p4all_ilp_solve_seconds", labels=("backend",),
                  buckets=(0.1, 1)).observe(0.5, backend="scipy-highs")
    return reg


class TestDashboard:
    def test_renders_every_section(self):
        frame = next(live(_populated_registry()))
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
        assert "  leaf,1     packets          7  reconfigs 1" in frame
        assert "leaf,1/drift/committed ×1" in frame

    def test_second_frame_shows_rates(self):
        reg = _populated_registry()
        frames = live(reg)
        first = next(frames)
        assert "(+" not in first  # no previous frame yet
        reg.get("p4all_packets_total").inc(50, engine="vector")
        second = next(frames)
        assert "frame 2" in second
        assert "engine vector    packets        150 (+50)" in second
        assert "  s0         packets         40 (+0)" in second

    def test_empty_registry(self):
        frame = next(live(MetricsRegistry()))
        assert frame == "p4all top — frame 1\nno metrics"

    def test_ok_status_without_violations(self):
        reg = MetricsRegistry()
        reg.gauge("p4all_slo_ewma", labels=("rule", "subject")).set(
            0.8, rule="hit_rate", subject="kv")
        frame = next(live(reg))
        assert "ok" in frame and "VIOLATIONS" not in frame

    def test_live_frame_is_the_obs_metrics_view(self, tmp_path, capsys):
        """One view: a live frame's metric text is exactly what
        ``p4all obs --metrics`` prints for the registry's Prometheus
        text; the difference columns appear from the second frame."""
        reg = _populated_registry()
        path = tmp_path / "metrics.prom"
        path.write_text(reg.to_prometheus())
        assert main(["obs", "--metrics", str(path)]) == 0
        obs_text = capsys.readouterr().out

        frames = live(reg)
        header, body = next(frames).split("\n", 1)
        assert header == "p4all top — frame 1"
        assert body + "\n" == obs_text
        assert "p4all_ilp_solve_seconds (histogram, 5 samples)" in body
        assert '{switch="leaf,1"} 7' in body

        reg.get("p4all_fabric_packets_total").inc(3, switch="leaf,1")
        second = next(frames)
        assert "leaf,1     packets         10 (+3)" in second

        assert main(["obs", "--metrics", str(path),
                     "--format", "json"]) == 0
        families = json.loads(capsys.readouterr().out)["metrics"]["families"]
        samples = families["p4all_fabric_packets_total"]["samples"]
        assert {"name": "p4all_fabric_packets_total",
                "labels": {"switch": "leaf,1"}, "value": 7.0} in samples


#: Durations and rates vary run to run; everything else in a report
#: is a function of the flags.
_TIMING = re.compile(r"[\d,]+(?:\.\d+)?(?= ?(?:pkt/s|s)\b)")

_TARGET = ["--stages", "6", "--memory", "65536"]


def _top_vs_plain(capsys, scenario: str, flags: list[str]):
    assert main([scenario, *flags]) == 0
    plain = capsys.readouterr().out
    assert main(["top", scenario, *flags, "--no-clear"]) == 0
    topped = capsys.readouterr().out
    assert "\x1b[" not in topped  # --no-clear suppresses ANSI
    frames, _, report = topped.rpartition("\n\n")
    return plain, frames, report


class TestRunTop:
    def test_run_mode_repaints_per_window_and_summarizes(self, capsys):
        plain, frames, report = _top_vs_plain(capsys, "run", [
            "--packets", "2000", "--window", "500", "--universe", "800",
            "--alpha", "1.3", "--seed", "3", *_TARGET,
        ])
        # One frame per monitoring window plus the final frame.
        assert frames.count("p4all top — frame") == 2000 // 500 + 1
        assert "pipeline" in frames
        assert report.startswith("processed 2000 packets")
        assert _TIMING.sub("#", report) == _TIMING.sub("#", plain)

    def test_fabric_mode_repaints_per_window_and_summarizes(self, capsys):
        plain, frames, report = _top_vs_plain(capsys, "fabric", [
            "--packets", "3000", "--switches", "2", "--window", "1000",
            "--universe", "2000", "--cut-at", "1500", *_TARGET,
        ])
        assert frames.count("p4all top — frame") == 3000 // 1000 + 1
        assert "── fleet" in frames
        assert report.startswith("fleet processed 3000 packets")
        assert _TIMING.sub("#", report) == _TIMING.sub("#", plain)

    def test_unknown_mode_raises(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["top", "nope"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
