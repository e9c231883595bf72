"""The vector plan's generated function: each specialisation at the edge
it specialises (differential against the interpreter, registers
bit-identical), the two emission forms side by side, a bail in the
middle of a plan, no aliasing between batches — and the tier report."""

import dataclasses

import numpy as np
import pytest

from repro.core import compile_source
from repro.pisa import Packet, Pipeline, small_target
from repro.pisa import vector
from repro.pisa.vector import VectorPlan

from .test_engine_differential import TOTAL_TABLE
from .test_vector_wide import assert_generated


def roomy(memory_kb=32):
    return dataclasses.replace(
        small_target(stages=8, memory_kb=memory_kb), phv_bits=1 << 12,
        stateless_alus_per_stage=32, stateful_alus_per_stage=16)


def registers_of(pipe):
    return {name: pipe.registers.get(name).dump().tolist()
            for name in pipe.registers.names()}


def assert_vector_exact(compiled, rows, prepare=None):
    """``rows`` (one field dict per packet) through the interpreter and,
    as packets and as columns, through the vector engine."""
    def run(engine, columns):
        pipe = Pipeline(compiled, engine=engine)
        if prepare is not None:
            prepare(pipe)
        if columns:
            results = pipe.process_columns(
                {name: np.array([row[name] for row in rows], dtype=np.uint64)
                 for name in rows[0]})
        else:
            results = pipe.process_many([Packet(fields=dict(row))
                                         for row in rows])
        return pipe, results

    oracle, expected = run("interp", False)
    for columns in (False, True):
        pipe, results = run("vector", columns)
        assert pipe.vplan.ok and len(results) == len(expected)
        for lane, (want, got) in enumerate(zip(expected, results)):
            assert got.phv == want.phv, (columns, lane)
            assert got.table_hits == want.table_hits, (columns, lane)
        assert registers_of(pipe) == registers_of(oracle), columns
    return pipe


KERNELS = """
struct metadata {
    bit<32> flow_id;
    bit<16> amt;
    bit<64> wamt;
    bit<1> on;
    bit<32> c_const;
    bit<32> c_lane;
    bit<32> g_const;
    bit<32> g_lane;
    bit<32> c_cond;
    bit<32> g_cond;
    bit<64> c_wide;
    bit<8> c_big;
    bit<8> c_small;
}
register<bit<32>>[8] r_const;
register<bit<32>>[8] r_lane;
register<bit<32>>[8] r_gconst;
register<bit<32>>[8] r_glane;
register<bit<32>>[8] r_cond;
register<bit<32>>[8] r_gcond;
register<bit<64>>[4] r_wide;
register<bit<8>>[70000] r_big;
register<bit<8>>[16] r_small;
action conditional() {
    r_cond.cond_add_read(meta.c_cond, meta.flow_id, meta.amt > 2, 1);
}
action guarded() {
    r_gconst.add_read(meta.g_const, meta.flow_id, 3);
    r_glane.add_read(meta.g_lane, meta.flow_id, meta.amt);
    r_gcond.cond_add_read(meta.g_cond, meta.flow_id, meta.amt > 2, meta.amt);
}
control Ingress(inout metadata meta) {
    apply {
        r_const.add_read(meta.c_const, meta.flow_id, 3);
        r_lane.add_read(meta.c_lane, meta.flow_id, meta.amt);
        conditional();
        r_wide.add_read(meta.c_wide, meta.flow_id, meta.wamt);
        r_big.add_read(meta.c_big, meta.flow_id, 1);
        r_small.add_read(meta.c_small, meta.flow_id, 1);
        if (meta.on == 1) { guarded(); }
    }
}
"""

WAMTS = [1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]


def kernel_rows(n, seed=5):
    rng = np.random.default_rng(seed)
    # A handful of flows: same-cell collisions in every register, and
    # 65 541 ≡ 5 only in the registers of at most 65 536 cells.
    flows = rng.choice([5, 13, 65541, 69999, 70005], size=n)
    return [{"flow_id": int(f), "amt": int(rng.integers(0, 6)),
             "wamt": WAMTS[int(rng.integers(0, 4))],
             "on": int(rng.integers(0, 2))} for f in flows]


class TestRegisterKernels:
    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_source(KERNELS, roomy(memory_kb=1024),
                              source_name="kernels")

    def test_every_specialisation_is_emitted(self, compiled):
        vplan = Pipeline(compiled, engine="vector").vplan
        assert set(vplan.forms.values()) == {"straight-line"}
        source = vplan.source
        # Constant amount on every lane; per-lane, conditional or
        # guarded amounts take the prefix-sum kernel, under the guard.
        assert source.count("_add_read_const(") == 3
        assert source.count("_add_read(") == 6
        assert source.count(", None, n)") == 3
        # The sort key: int64 only for the register beyond 65 536 cells.
        assert source.count("_i64, 1)") == 1
        assert source.count("_u16, ") == 8

    def test_collisions_amounts_guards_and_wide_cells(self, compiled):
        assert_vector_exact(compiled, kernel_rows(96))

    def test_one_lane(self, compiled):
        for row in kernel_rows(4, seed=9):
            assert_vector_exact(compiled, [row])

    def test_guard_selecting_no_lane(self, compiled):
        rows = [dict(row, on=0) for row in kernel_rows(12)]
        assert_vector_exact(compiled, rows)


SANDWICH = """
struct metadata {
    bit<32> dst;
    bit<32> a;
    bit<32> b;
    bit<32> c;
    bit<16> port;
    bit<8>[4] arr;
}
action set_port(bit<16> p) {
    meta.port = p;
    meta.b = meta.a + p;
}
action poke(bit<8> v) { meta.arr[v] = 7; }
table route {
    key = { meta.dst : exact; }
    actions = { set_port; poke; NoAction; }
    size = 16;
    default_action = NoAction;
}
control Ingress(inout metadata meta) {
    apply {
        meta.a = meta.dst + 1;
        route.apply();
        meta.c = meta.b + meta.a + meta.port;
    }
}
"""


class TestFormsSideBySide:
    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_source(SANDWICH, roomy(), source_name="sandwich")

    @staticmethod
    def install(pipe):
        pipe.table_add("route", (1,), "set_port", (7,))
        pipe.table_add("route", (2,), "set_port", (9,))
        pipe.table_add("route", (3,), "poke", (1,))

    def test_buffered_between_straight_line(self, compiled):
        pipe = Pipeline(compiled, engine="vector")
        assert list(pipe.vplan.forms.values()) == [
            "straight-line", "buffered: table apply", "straight-line"]
        # The action reads meta.a from the batch and the last stage
        # reads what the action wrote: flushed before, reloaded after.
        source = pipe.vplan.source
        flush, apply = source.index("cols['meta.a'] ="), source.index(".apply(")
        assert flush < apply < source.index("cols.get('meta.b')")
        rows = [{"dst": d} for d in (1, 2, 5, 1, 0, 2)]
        assert_vector_exact(compiled, rows, prepare=self.install)

    def test_bail_mid_plan(self, compiled, monkeypatch):
        islands = []
        run_island = VectorPlan._run_island

        def counting(self, splan, batch, hits):
            islands.append(splan.stage)
            run_island(self, splan, batch, hits)

        monkeypatch.setattr(VectorPlan, "_run_island", counting)
        # poke() writes a field its data picks: no vector form, so the
        # batch whose lanes select it re-runs stage 1 scalar — after a
        # straight-line stage, before another.
        rows = [{"dst": d, "arr[1]": 3} for d in (1, 3, 2, 3, 4)]
        pipe = assert_vector_exact(compiled, rows, prepare=self.install)
        assert islands == [1, 1]            # as packets, as columns
        assert pipe.vplan.island_stages == []

    def test_tier_report(self, compiled):
        report = Pipeline(compiled, engine="vector").tier_report()
        assert [row["stage"] for row in report] == [0, 1, 2]
        assert [row["scalar"] for row in report] == [
            "straight-line", "buffered: table apply", "straight-line"]
        assert [row["vector"] for row in report] == [
            "straight-line", "buffered: table apply", "straight-line"]
        assert report[1]["units"] == ("tbl_route",)
        scalar = Pipeline(compiled, engine="compiled").tier_report()
        assert [row["vector"] for row in scalar] == [None] * 3
        assert Pipeline(compiled, engine="interp").tier_report() == []
        described = Pipeline(compiled, engine="vector").vplan.describe()
        assert "stage 1 (buffered: table apply): tbl_route" in described

    def test_source_is_compiled_once(self, compiled, monkeypatch):
        compiles = []

        def counting(source, filename, mode):
            compiles.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(vector, "compile", counting, raising=False)
        pipe = Pipeline(compiled, engine="vector")
        assert compiles == ["<pisa-vector-plan>"]
        assert_generated(pipe.vplan)


class TestNoAliasing:
    def test_results_survive_the_next_batch(self):
        compiled = compile_source(SANDWICH, roomy(), source_name="sandwich")
        pipe = Pipeline(compiled, engine="vector")
        TestFormsSideBySide.install(pipe)
        first = pipe.process_columns({"dst": np.array([1, 2, 5, 1])})
        keys = sorted(first[0].phv)
        kept = {key: first.column(key).copy() for key in keys}
        kept_hits = first.hit_column("route").copy()
        pipe.process_columns({"dst": np.array([2, 2, 1, 9])})
        for key in keys:
            assert (first.column(key) == kept[key]).all(), key
        assert (first.hit_column("route") == kept_hits).all()

    def test_loaded_columns_are_read_never_written(self):
        compiled = compile_source(KERNELS, roomy(memory_kb=1024),
                                  source_name="kernels")
        vplan = Pipeline(compiled, engine="vector").vplan
        rows = kernel_rows(40)
        batch = vplan.load_columns(
            {name: np.array([row[name] for row in rows], dtype=np.uint64)
             for name in rows[0]}, len(rows))
        loaded = dict(batch.cols)
        for column in loaded.values():
            column.flags.writeable = False      # a write would raise
        vplan.run_stages(batch, {})
        for key, column in loaded.items():
            assert batch.cols[key] is column    # inputs are not rebound
        assert not batch.present["meta.c_const"].flags.writeable


TABLE_BUMPS = """
struct metadata {
    bit<32> dst;
    bit<32> cnt;
    bit<32> seen;
}
register<bit<32>>[8] bank;
action bump() { bank.add_read(meta.cnt, meta.dst, 1); }
table t {
    key = { meta.dst : exact; }
    actions = { bump; NoAction; }
    size = 8;
    default_action = NoAction;
}
control Ingress(inout metadata meta) {
    apply {
        t.apply();
        bank.read(meta.seen, meta.cnt);
    }
}
"""


class TestTableActionRegisters:
    """A register a table action touches counts for the one-stage-per-
    register rule, though ``tbl_*`` units declare no registers."""

    def test_action_register_read_in_a_later_stage(self):
        compiled = compile_source(TABLE_BUMPS, roomy(), source_name="bumps")
        # The compiler cannot see the dependency either and shares a
        # stage; move the read (and bank with it) one stage down.
        compiled = dataclasses.replace(
            compiled,
            units=[unit if unit.label == "tbl_t"
                   else dataclasses.replace(unit, stage=1)
                   for unit in compiled.units],
            registers=[dataclasses.replace(alloc, stage=1)
                       for alloc in compiled.registers])
        pipe = Pipeline(compiled, engine="vector")
        assert not pipe.vplan.ok
        assert pipe.vplan.reason == "register bank[0] spans multiple stages"
        assert "disabled" in pipe.vplan.describe()

        def prepare(pipe):
            pipe.table_add("t", (1,), "bump")

        # Lane 0 must read the cell before lanes 1 and 2 bump it.
        results = {}
        for engine in ("interp", "compiled", "vector"):
            for columns in (False, True):
                pipe = Pipeline(compiled, engine=engine)
                prepare(pipe)
                dsts = [1, 1, 1, 2]
                out = (pipe.process_columns({"dst": dsts}) if columns else
                       pipe.process_many([Packet(fields={"dst": d})
                                          for d in dsts]))
                results[engine, columns] = (
                    [(r.phv, r.table_hits) for r in out], registers_of(pipe))
        assert results["interp", False][0][0][0]["meta.seen"] == 1
        assert len({repr(v) for v in results.values()}) == 1

    def test_dynamic_instance_in_an_action(self):
        compiled = compile_source(TOTAL_TABLE,
                                  small_target(stages=4, memory_kb=8))
        vplan = Pipeline(compiled, engine="vector", validate=False).vplan
        assert not vplan.ok
        assert "bank[r] through a dynamic instance" in vplan.reason
