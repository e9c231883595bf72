"""End-to-end observability: traced compiles, traced elastic runs, CLI.

These use the *global* ``repro.obs.trace``/``metrics`` singletons the
instrumentation sites talk to; the conftest fixture restores the tracer
to disabled+empty after each test.
"""

import dataclasses
import json

from repro import obs
from repro.core import CompileOptions, compile_source, compile_source_greedy
from repro.obs import chrome_trace, validate_chrome_trace
from repro.obs.view import render, snapshot
from repro.pisa.resources import small_target

SOURCE = """
symbolic int n;
struct metadata {
    bit<32> fkey;
    bit<32>[n] h;
}
register<bit<8>>[16][n] marks;
action probe()[int i] {
    meta.h[i] = hash(i, meta.fkey);
    marks[i].write(meta.h[i], 1);
}
control Ingress(inout metadata meta) {
    apply { for (i < n) { probe()[i]; } }
}
optimize n;
"""


def _span_tree(tracer):
    """name → list of child span names, from recorded parent ids."""
    spans = tracer.spans
    by_id = {s.span_id: s for s in spans}
    children = {}
    for s in spans:
        if s.parent_id is not None and s.parent_id in by_id:
            children.setdefault(by_id[s.parent_id].name, []).append(s.name)
    return children


class TestTracedCompile:
    def test_compile_span_tree(self):
        obs.trace.enable()
        compiled = compile_source(SOURCE, small_target(stages=3))
        assert compiled.symbol_values["n"] >= 1
        children = _span_tree(obs.trace)
        root_kids = children["compile"]
        for phase in ("compile.parse", "compile.ir", "compile.bounds",
                      "compile.ilp_build", "compile.ilp_solve",
                      "compile.codegen", "compile.validate"):
            assert phase in root_kids, phase
        # The solver dispatch nests under the solve phase.
        assert "ilp.solve" in children["compile.ilp_solve"]
        obj = chrome_trace(obs.trace)
        assert validate_chrome_trace(obj) > 0

    def test_layout_path_on_the_solve_span(self):
        # The layout solve says which path it took: here the LP-rounded
        # start is certified by the LP bound, so no search ran; the
        # solves under it are the start step's LP solves and the two
        # zero-gap passes, none of them seeded.
        obs.trace.enable()
        compile_source(SOURCE, small_target(stages=3))
        (solve,) = [s for s in obs.trace.spans if s.name == "compile.ilp_solve"]
        assert solve.attrs["incumbent_source"] == "lp-certified"
        assert solve.attrs["nodes_explored"] == 0
        assert solve.attrs["mip_dual_bound"] is not None
        calls = [s for s in obs.trace.spans if s.name == "ilp.solve"]
        assert len(calls) >= 3
        assert not any(s.attrs["warm_start"] for s in calls)

    def test_compile_metrics_recorded(self):
        obs.metrics.reset()
        compile_source(SOURCE, small_target(stages=3))
        compiles = obs.metrics.get("p4all_compiles_total")
        assert compiles is not None
        assert sum(v for _, _, v in compiles.samples()) >= 1
        solves = obs.metrics.get("p4all_ilp_solves_total")
        assert solves is not None
        phases = obs.metrics.get("p4all_compile_phase_seconds")
        assert phases.snapshot(phase="codegen")["count"] >= 1

    def test_disabled_tracer_records_nothing(self):
        assert not obs.trace.enabled
        compile_source_greedy(SOURCE, small_target(stages=3))
        assert len(obs.trace) == 0

    def test_cached_recompile_marks_span(self):
        from repro.core.cache import CompileCache

        obs.trace.enable()
        cache = CompileCache()
        options = CompileOptions(cache=cache)
        target = small_target(stages=3)
        compile_source(SOURCE, target, options)
        obs.trace.reset()
        compile_source(SOURCE, target, options)  # layout-tier hit
        [root] = obs.trace.spans_named("compile")
        assert root.attrs.get("layout_cached") is True


class TestTracedRuntime:
    def test_elastic_run_produces_nested_timeline(self):
        from repro.pisa.resources import tofino
        from repro.runtime import ElasticRuntime, RuntimeConfig
        from repro.workloads import ChurningZipf

        obs.trace.enable()
        obs.metrics.reset()
        target = dataclasses.replace(
            tofino(), stages=6, memory_bits_per_stage=64 * 1024
        )
        cut = dataclasses.replace(target, memory_bits_per_stage=32 * 1024)
        runtime = ElasticRuntime(
            target,
            config=RuntimeConfig(window_packets=500, drift_reconfig=False),
        )
        runtime.schedule_target_change(1500, cut)
        report = runtime.run(ChurningZipf(800, alpha=1.3, seed=3), 3000)
        assert report.packets == 3000

        # The runtime is a one-switch fleet: the fleet's span tree.
        children = _span_tree(obs.trace)
        assert "plan" in children["fleet.install"]
        assert "fleet.window" in children["fleet.run"]
        assert "fleet.reconfigure" in children["fleet.run"]
        rec_kids = children["fleet.reconfigure"]
        assert "plan" in rec_kids
        assert "fleet.reconfigure.migrate" in rec_kids
        assert "fleet.reconfigure.validate" in rec_kids

        # Telemetry landed inside spans, not in a parallel stream.
        [rec] = obs.trace.spans_named("fleet.reconfigure")
        assert rec.attrs["switch"] == "s0"
        kinds = {e.name for e in rec.events}
        assert "telemetry.reconfig_triggered" in kinds
        assert "telemetry.swap_committed" in kinds

        obj = chrome_trace(obs.trace)
        assert validate_chrome_trace(obj) > 0
        rendered = render(snapshot(trace=obj))
        assert "fleet.run" in rendered

        # Metrics cover the control loop and the data path.
        assert obs.metrics.get("p4all_reconfigs_total").value(
            switch="s0", cause="target-change", outcome="committed") == 1
        windows = obs.metrics.get("p4all_windows_total").value()
        assert windows == report.packets // 500
        assert obs.metrics.get("p4all_packets_total") is not None


class TestCli:
    def test_compile_trace_and_metrics_flags(self, tmp_path):
        from repro.cli import main
        from repro.obs import (
            validate_chrome_trace_file,
            validate_prometheus_file,
        )

        prog = tmp_path / "prog.p4all"
        prog.write_text(SOURCE)
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        rc = main([
            "compile", str(prog), "--target", "small",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
            "-o", str(tmp_path / "out.p4"),
        ])
        assert rc == 0
        assert validate_chrome_trace_file(trace_path) > 0
        assert validate_prometheus_file(metrics_path) > 0
        names = {e["name"]
                 for e in json.loads(trace_path.read_text())["traceEvents"]}
        assert "compile" in names
        # The CLI exporter disables the tracer again afterwards.
        assert not obs.trace.enabled

    def test_obs_summarizes_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        prog = tmp_path / "prog.p4all"
        prog.write_text(SOURCE)
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.prom"
        assert main([
            "compile", str(prog), "--target", "small",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
            "-o", str(tmp_path / "out.p4"),
        ]) == 0
        capsys.readouterr()
        rc = main(["obs", str(trace_path), "--metrics", str(metrics_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "slowest root span" in out
        assert "compile" in out
        assert "metric families" in out

    def test_obs_without_arguments_errors(self, capsys):
        from repro.cli import main

        assert main(["obs"]) == 2
        assert "nothing to summarize" in capsys.readouterr().err


ISLANDED = """
struct metadata {
    bit<64> big;
    bit<64> third;
}
control Ingress(inout metadata meta) {
    apply { meta.third = meta.big / 3; }
}
"""


class TestVectorTierVisible:
    """Which tier a vector batch ran on must show in the run's own
    artifacts: the batch span, the flight ring and a counter by reason."""

    def test_island_stages_on_span_flight_note_and_counter(self):
        from repro.pisa import Packet, Pipeline

        reason = "'/' on a 64-bit operand"
        islands = obs.metrics.counter(
            "p4all_vector_island_stages", labels=("reason",))
        before = islands.value(reason=reason)
        compiled = compile_source(ISLANDED, small_target(stages=3))
        pipe = Pipeline(compiled, engine="vector")
        assert islands.value(reason=reason) == before + 1

        obs.flight.clear()
        obs.trace.enable()
        pipe.process_many([Packet(fields={"big": 9})])
        pipe.process_many([Packet(fields={"big": 9})],
                          callback=lambda result: None)
        batched, streamed = obs.trace.spans_named("pisa.batch")
        assert batched.attrs["island_stages"] == 1
        # Callback mode serves per packet on the scalar plan: no tier.
        assert "island_stages" not in streamed.attrs
        notes = [e["data"] for e in obs.flight.entries()
                 if e["kind"] == "batch"]
        assert notes[0]["island_stages"] == 1
        assert "island_stages" not in notes[1]

    def test_fully_vector_plan_reports_zero(self):
        from repro.pisa import Packet, Pipeline

        pipe = Pipeline(compile_source(SOURCE, small_target(stages=3)),
                        engine="vector")
        obs.trace.enable()
        pipe.process_many([Packet(fields={"fkey": 1})])
        [batch] = obs.trace.spans_named("pisa.batch")
        assert batch.attrs["island_stages"] == 0
