"""Compiler-option behavior tests."""

import dataclasses

import pytest

from repro.core import CompileOptions, compile_source
from repro.pisa.resources import small_target
from repro.structures import CMS_SOURCE


class TestHashUnitLimits:
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

    def test_hash_units_cap_per_stage(self):
        # 1 hash unit per stage, 3 stages: at most 3 probes placeable.
        target = dataclasses.replace(
            small_target(stages=3, memory_kb=16), hash_units_per_stage=1
        )
        compiled = compile_source(self.SOURCE, target)
        assert compiled.symbol_values["n"] <= 3
        for stage in range(target.stages):
            hashes = sum(
                u.instance.cost.hash_ops for u in compiled.units_in_stage(stage)
            )
            assert hashes <= 1


class TestStageBias:
    def test_bias_prefers_early_stages(self):
        target = small_target(stages=8, memory_kb=4)
        compiled = compile_source(CMS_SOURCE, target)
        # With a tiny memory budget the structures don't need the whole
        # pipeline; the stage bias should keep the layout at the front.
        assert min(compiled.stages_used()) == 0

    def test_determinism_across_runs(self):
        target = small_target(stages=6, memory_kb=16)
        a = compile_source(CMS_SOURCE, target)
        b = compile_source(CMS_SOURCE, target)
        assert a.symbol_values == b.symbol_values
        assert [(u.label, u.stage) for u in a.units] == [
            (u.label, u.stage) for u in b.units
        ]


class TestExclusionAsPrecedenceMode:
    def test_compiles_and_is_no_better(self):
        target = small_target(stages=6, memory_kb=32)
        full = compile_source(CMS_SOURCE, target)
        degraded = compile_source(
            CMS_SOURCE,
            target,
            options=CompileOptions(exclusion_as_precedence=True),
        )
        assert degraded.solution.objective <= full.solution.objective
