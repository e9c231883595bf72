"""Unit tests for the compiled execution engine's plan IR and wiring."""

from __future__ import annotations

import pytest

from repro.core import compile_source
from repro.pisa import (
    ENGINES,
    Packet,
    Pipeline,
    SimulationError,
    small_target,
)
from repro.structures import CMS_SOURCE


@pytest.fixture(scope="module")
def compiled_cms():
    return compile_source(CMS_SOURCE, small_target(stages=6, memory_kb=32),
                          source_name="cms")


class TestEngineSelection:
    def test_default_is_vector(self, compiled_cms):
        pipe = Pipeline(compiled_cms)
        assert pipe.engine == "vector"
        assert pipe.plan is not None and pipe.vplan.ok

    def test_explicit_engine_rejects_unknown(self, compiled_cms):
        with pytest.raises(ValueError, match="turbo"):
            Pipeline(compiled_cms, engine="turbo")

    def test_engines_tuple(self):
        assert set(ENGINES) == {"compiled", "interp", "vector"}


class TestPlanStructure:
    def test_plan_has_only_active_stages(self, compiled_cms):
        pipe = Pipeline(compiled_cms, engine="compiled")
        active = [s for s, units in enumerate(pipe._stage_units) if units]
        assert [sp.stage for sp in pipe.plan.stages] == active

    def test_masks_cover_phv_layout(self, compiled_cms):
        pipe = Pipeline(compiled_cms, engine="compiled")
        for name in pipe.phv_layout.fields:
            width = pipe.phv_layout.width(name)
            assert pipe.plan.masks[name] == (1 << width) - 1

    def test_read_write_sets_lifted(self, compiled_cms):
        pipe = Pipeline(compiled_cms, engine="compiled")
        writes = set()
        for sp in pipe.plan.stages:
            writes |= sp.writes
        assert any("cms_count" in key for key in writes)
        assert "meta.cms_min" in writes

    def test_describe_mentions_fast_path(self, compiled_cms):
        # Every stage runs generated code, so the summary says *how*
        # each was emitted instead of whether a fast path exists.
        pipe = Pipeline(compiled_cms, engine="compiled")
        text = pipe.plan.describe()
        assert "execution plan" in text
        for splan in pipe.plan.stages:
            assert f"stage {splan.stage} (straight-line)" in text
        assert not hasattr(pipe.plan, "run")

    def test_fast_source_is_inspectable(self, compiled_cms):
        pipe = Pipeline(compiled_cms, engine="compiled")
        source = pipe.plan.fast_source
        assert source.startswith("def _fast_run(phv, hits):")
        compile(source, "<check>", "exec")  # stays valid Python
        for splan in pipe.plan.stages:
            assert f"# stage {splan.stage}\n" in source
            assert f"def _stage_{splan.stage}(phv, hits):" in source


class TestProcessMany:
    def test_collect_returns_results(self, compiled_cms):
        pipe = Pipeline(compiled_cms)
        packets = [Packet(fields={"flow_id": i}) for i in range(5)]
        results = pipe.process_many(packets)
        assert len(results) == 5
        assert all(r.phv for r in results)

    def test_no_collect_returns_count(self, compiled_cms):
        pipe = Pipeline(compiled_cms)
        packets = (Packet(fields={"flow_id": i}) for i in range(7))
        assert pipe.process_many(packets, collect=False) == 7
        assert pipe.packets_processed == 7

    def test_callback_streams_results(self, compiled_cms):
        pipe = Pipeline(compiled_cms)
        seen = []
        count = pipe.process_many(
            (Packet(fields={"flow_id": i}) for i in range(4)),
            callback=lambda r: seen.append(r.get("meta.cms_min")),
        )
        assert count == 4
        assert len(seen) == 4

    def test_streaming_matches_collect(self, compiled_cms):
        packets = [Packet(fields={"flow_id": i % 3}) for i in range(9)]
        a = Pipeline(compiled_cms)
        b = Pipeline(compiled_cms)
        collected = [r.phv for r in a.process_many(packets)]
        streamed = []
        b.process_many(packets, callback=lambda r: streamed.append(r.phv))
        assert collected == streamed


class TestConflictSemantics:
    """Same-stage write conflicts raise the interpreter's exact error."""

    SOURCE = """
struct metadata {
    bit<16> a;
    bit<16> out;
}
control Ingress(inout metadata meta) {
    apply {
        meta.out = meta.a + 1;
        meta.out = meta.a + 2;
    }
}
utility: 1;
"""

    def test_both_engines_raise_identically(self):
        target = small_target(stages=4, memory_kb=8)
        try:
            compiled = compile_source(self.SOURCE, target,
                                      source_name="conflict")
        except Exception:
            pytest.skip("compiler schedules the writes apart")
        packet = Packet(fields={"a": 1})
        errors = {}
        for engine in ENGINES:
            pipe = Pipeline(compiled, engine=engine)
            try:
                pipe.process(packet)
                errors[engine] = None
            except SimulationError as exc:
                errors[engine] = str(exc)
        assert errors["compiled"] == errors["interp"]
