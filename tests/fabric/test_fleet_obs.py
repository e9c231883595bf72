"""Fleet observability: fleet-level spans, per-switch reconfig
attribution, and the FleetReport bridge into the span tree."""

import pytest

from repro import obs
from repro.fabric import FabricTopology, FleetConfig, FleetController
from repro.pisa import small_target
from repro.runtime import TelemetryBus
from repro.workloads import ZipfGenerator


@pytest.fixture(autouse=True)
def _clean_trace():
    """These tests drive the global tracer the fabric instrumentation
    records on; restore it disabled+empty afterwards."""
    yield
    obs.trace.disable()
    obs.trace.reset()


def make_controller(mini64, cache, n=3, **config):
    fabric = FabricTopology.flat(n, mini64)
    return FleetController(
        fabric,
        config=FleetConfig(window_packets=500, vnodes=32, **config),
        telemetry=TelemetryBus(),
        cache=cache,
    )


def _fleet_reconfigs(switch: str) -> float:
    metric = obs.metrics.get("p4all_reconfigs_total")
    if metric is None:
        return 0.0
    return sum(v for key, v in metric.to_dict()["values"].items()
               if key.split(",")[0] == switch)


class TestFleetSpans:
    def test_install_records_fleet_install_and_plan(self, mini64,
                                                    shared_cache):
        obs.trace.enable()
        controller = make_controller(mini64, shared_cache)
        controller.install_all()
        [install] = obs.trace.spans_named("fleet.install")
        assert install.attrs["switches"] == 3
        # One planner, one plan per switch, inside the install span.
        plans = obs.trace.spans_named("plan")
        assert len(plans) == 3
        assert {p.parent_id for p in plans} == {install.span_id}

    def test_scheduled_cut_records_fleet_migrate_free_swap(self, mini64,
                                                           mini32,
                                                           shared_cache):
        obs.trace.enable()
        controller = make_controller(mini64, shared_cache)
        controller.schedule_cut(1000, "s0", mini32)
        before = _fleet_reconfigs("s0")
        report = controller.run(ZipfGenerator(3000, alpha=1.1, seed=9),
                                3000)
        assert len(report.reconfigs) == 1

        # The per-switch counter attributes the cut to s0.
        assert _fleet_reconfigs("s0") == before + 1
        metric = obs.metrics.get("p4all_reconfigs_total")
        keys = [k.split(",") for k in metric.to_dict()["values"]]
        assert ["s0", "target-change", "committed"] in keys

        # The replan for the cut ran inside the switch's reconfigure span.
        [swap] = obs.trace.spans_named("fleet.reconfigure")
        assert swap.attrs["switch"] == "s0" and swap.attrs["committed"]
        assert any(p.parent_id == swap.span_id
                   for p in obs.trace.spans_named("plan"))

    def test_run_bridges_fleet_report_into_run_span(self, mini64, mini32,
                                                    shared_cache):
        obs.trace.enable()
        controller = make_controller(mini64, shared_cache)
        controller.schedule_cut(500, "s1", mini32)
        report = controller.run(ZipfGenerator(3000, alpha=1.1, seed=13),
                                2000)
        [run_span] = obs.trace.spans_named("fleet.run")
        names = {e.name for e in run_span.events}
        assert "fleet.report" in names
        assert "fleet.reconfig" in names
        [summary] = [e for e in run_span.events
                     if e.name == "fleet.report"]
        assert summary.attrs["packets"] == report.packets
        assert summary.attrs["reconfigs"] == len(report.reconfigs)
        assert summary.attrs["switches"] == 3

    def test_untraced_run_still_counts_fleet_metrics(self, mini64, mini32,
                                                     shared_cache):
        assert not obs.trace.enabled
        controller = make_controller(mini64, shared_cache)
        controller.schedule_cut(500, "s2", mini32)
        before = _fleet_reconfigs("s2")
        controller.run(ZipfGenerator(3000, alpha=1.1, seed=5), 2000)
        assert _fleet_reconfigs("s2") == before + 1
        assert len(obs.trace) == 0


class TestFailedPlan:
    def test_failed_plan_is_timed_counted_and_observed(self, mini64,
                                                       shared_cache):
        """A cut to a target nothing fits takes the one swap path: the
        record is timed, the reconfig counter sees ``plan-failed`` and
        the SLO monitor observes its ``reconfig_seconds``."""
        controller = make_controller(mini64, shared_cache)
        controller.install_all()
        old_app = controller.topology.node("s0").app
        before = _fleet_reconfigs("s0")
        # Two stateful ALUs a stage: NetCache does not fit at all.
        record = controller.cut_switch("s0", small_target(stages=6,
                                                          memory_kb=64))
        assert not record.committed and record.outcome == "plan-failed"
        assert record.seconds > 0.0
        assert controller.topology.node("s0").app is old_app
        assert _fleet_reconfigs("s0") == before + 1
        assert obs.metrics.get("p4all_reconfigs_total").value(
            switch="s0", cause="target-change", outcome="plan-failed") >= 1
        assert controller.slo.status()["reconfig_seconds:s0"]["samples"] == 1
        failed = controller.telemetry.last_of("reconfig_failed")
        assert failed.data["switch"] == "s0"
