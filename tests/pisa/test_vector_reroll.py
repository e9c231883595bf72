"""Re-rolled rows: P4All's unrolled loops as one 2-D operation.

A loop over symbolic rows is unrolled into one instance per row, each in
a stage of its own. The vector plan runs every hash over the same
arguments as one stacked pass, and the ``add``/``add_read`` rows of one
register family as one kernel over a rows × lanes index, at the first
row's line — wherever each row's index, amount and guard are ready
there. None of it may change a bit: the interpreter, the compiled plan
and the vector plan agree on every column and every register.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import compile_source
from repro.pisa import Packet, Pipeline, small_target

from .test_engine_differential import assert_equivalent
from .test_vector_wide import compiled_app, t6

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Mostly a small universe (same-cell collisions inside a batch), now and
#: then any 32-bit key.
flows = st.lists(st.one_of(st.integers(0, 40), st.integers(0, (1 << 32) - 1)),
                 min_size=1, max_size=80)


def one_alu_per_stage(stages=8, memory_kb=32):
    """A target that puts each stateful row in a stage of its own."""
    return dataclasses.replace(
        small_target(stages=stages, memory_kb=memory_kb), phv_bits=1 << 14,
        stateless_alus_per_stage=64, stateful_alus_per_stage=1)


#: Each row runs only on the lanes whose flow has bit ``i`` set.
GUARDED = """
symbolic int rows;
symbolic int cols;
assume rows >= 1 && rows <= 4;
assume cols <= 16;
struct metadata {
    bit<32> flow_id;
    bit<32>[rows] idx;
    bit<32>[rows] cnt;
}
register<bit<32>>[cols][rows] sk;
action bump()[int i] {
    meta.idx[i] = hash(i, meta.flow_id);
    sk[i].add_read(meta.cnt[i], meta.idx[i], 1);
}
control Ingress(inout metadata meta) {
    apply {
        for (i < rows) {
            if (((meta.flow_id >> i) & 1) == 1) { bump()[i]; }
        }
    }
}
optimize rows * cols;
"""

#: ``r[2]``'s index is a register read two stages after ``r[0]``.
LATE = """
struct metadata {
    bit<32> flow_id;
    bit<32> c0;
    bit<32> c1;
    bit<32> c2;
    bit<32> t;
}
register<bit<32>>[16][3] r;
register<bit<32>>[16] aux;
action row0() { r[0].add_read(meta.c0, meta.flow_id, 1); }
action mid() { aux.read(meta.t, meta.c0); }
action row1() { r[1].add_read(meta.c1, meta.flow_id + 1, 1); }
action row2() { r[2].add_read(meta.c2, meta.t, 1); }
control Ingress(inout metadata meta) {
    apply {
        row0();
        mid();
        row1();
        row2();
    }
}
"""

#: 2 × 40 000 cells: more than one uint16 sort can key.
BIG = """
struct metadata {
    bit<32> flow_id;
    bit<32> i0;
    bit<32> i1;
    bit<32> c0;
    bit<32> c1;
}
register<bit<32>>[40000][2] big;
action b0() {
    meta.i0 = hash(0, meta.flow_id);
    big[0].add_read(meta.c0, meta.i0, 1);
}
action b1() {
    meta.i1 = hash(1, meta.flow_id);
    big[1].add_read(meta.c1, meta.i1, 1);
}
control Ingress(inout metadata meta) {
    apply {
        b0();
        b1();
    }
}
"""


@pytest.fixture(scope="module")
def programs():
    return {
        "guarded": compile_source(GUARDED, one_alu_per_stage(),
                                  source_name="guarded"),
        "late": compile_source(LATE, one_alu_per_stage(), source_name="late"),
        "big": compile_source(BIG, one_alu_per_stage(4, memory_kb=1300),
                              source_name="big"),
    }


@pytest.fixture(scope="module")
def apps():
    return {name: compiled_app(name, t6())
            for name in ("cms", "netcache", "sketchlearn", "conquest",
                         "precision")}


def near_wrap(pipe):
    """Every register cell one increment short of wrapping to 0."""
    for name in pipe.registers.names():
        register = pipe.registers.get(name)
        register.load(np.full(register.cells, register.mask, dtype=np.uint64))


def app_packets(app: str, keys) -> list[Packet]:
    """One packet per key carrying ``app``'s input fields."""
    if app == "netcache":
        return [Packet(fields={"req_key": k, "dst": k % 3}) for k in keys]
    if app == "conquest":
        return [Packet(fields={"flow_id": k, "pkt_bytes": 40 + k % 1460,
                               "window": k % 4}) for k in keys]
    return [Packet(fields={"flow_id": k}) for k in keys]


def rerolls(compiled) -> list[str]:
    vplan = Pipeline(compiled, engine="vector").vplan
    return [what for stage in sorted(vplan.rerolls)
            for what in vplan.rerolls[stage]]


class TestWhatIsRerolled:
    def test_library_apps(self, apps):
        assert rerolls(apps["cms"]) == [
            "stacked hash: 4 rows (seeds 0, 1, 2, 3)",
            "re-rolled add_read: cms_sketch[0], cms_sketch[1], "
            "cms_sketch[2], cms_sketch[3] (4 rows, flat sort)"]
        assert rerolls(apps["netcache"])[0] == (
            "stacked hash: 5 rows (seeds 0, 1, 2, 3, 100)")
        assert any(what.startswith("re-rolled add: sl_lvl[0]")
                   and what.endswith("(9 rows, no sort)")
                   for what in rerolls(apps["sketchlearn"]))
        # Precision's counter rows read their own key row first: each
        # waits for a register read, so only the hashes stack.
        assert [what.split(":")[0] for what in rerolls(apps["precision"])] \
            == ["stacked hash"]

    def test_guarded_rows_reroll(self, programs):
        assert rerolls(programs["guarded"])[-1] == (
            "re-rolled add_read: sk[0], sk[1], sk[2], sk[3] "
            "(4 rows, flat sort)")

    def test_a_row_not_ready_at_the_first_keeps_its_own_kernel(
            self, programs):
        assert rerolls(programs["late"]) == [
            "re-rolled add_read: r[1], r[0] (2 rows, flat sort)"]
        source = Pipeline(programs["late"], engine="vector").vplan.source
        assert source.count("_add_read_const(") == 1

    def test_more_cells_than_one_uint16_sort_sorts_per_row(self, programs):
        assert rerolls(programs["big"])[-1] == (
            "re-rolled add_read: big[0], big[1] (2 rows, per-row sort)")

    def test_tier_report_and_describe_name_them(self, apps):
        pipe = Pipeline(apps["cms"], engine="vector")
        report = pipe.tier_report()
        assert report[0]["rerolled"] == pipe.vplan.rerolls[0]
        assert all(row["rerolled"] == [] for row in report[1:])
        described = pipe.vplan.describe()
        for what in pipe.vplan.rerolls[0]:
            assert f"\n    {what}" in described
        scalar = Pipeline(apps["cms"], engine="compiled").tier_report()
        assert all(row["rerolled"] == [] for row in scalar)


class TestEnginesAgree:
    @pytest.mark.parametrize("lanes", [1, 500, 4096])
    @pytest.mark.parametrize("app", ["cms", "netcache", "sketchlearn",
                                     "conquest", "precision"])
    def test_apps(self, apps, app, lanes):
        keys = np.random.default_rng(lanes).integers(1, 300, size=lanes)
        assert_equivalent(apps[app], app_packets(app, keys.tolist()))

    @_SETTINGS
    @given(keys=flows, program=st.sampled_from(["guarded", "late", "big"]),
           wrap=st.booleans())
    def test_rerolled_programs(self, programs, keys, program, wrap):
        assert_equivalent(programs[program],
                          [Packet(fields={"flow_id": k}) for k in keys],
                          prepare=near_wrap if wrap else None)

    @_SETTINGS
    @given(keys=flows, app=st.sampled_from(["cms", "netcache", "conquest"]))
    def test_counters_one_below_wrap(self, apps, keys, app):
        assert_equivalent(apps[app], app_packets(app, keys),
                          prepare=near_wrap)
