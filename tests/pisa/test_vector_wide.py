"""64-bit lanes in the vector engine.

Every operator the lowerer accepts on a ``U64`` (a 64-bit field or
register cell) or ``Mod64`` (wrapped arithmetic on one) value must give
what the interpreter and the compiled plan give, bit for bit, at the
values where an int64 column and the unbounded value part ways; the
constructs it refuses on such values must island and stay exact; and
the five apps must not island at all.
"""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.conquest import conquest_source
from repro.apps.netcache import NetCacheApp, netcache_linked, netcache_source
from repro.apps.precision import precision_source
from repro.apps.sketchlearn import sketchlearn_source
from repro.core import compile_linked, compile_source
from repro.pisa import Packet, Pipeline, small_target, tofino
from repro.structures import CMS_SOURCE
from repro.workloads import ZipfGenerator

from .test_engine_differential import assert_equivalent

EDGES = [0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]
SHIFTS = [0, 1, 63, 64, 65, 200]
wide = st.integers(min_value=0, max_value=(1 << 64) - 1)


def roomy(stages=8):
    """A test target whose PHV and ALUs fit one field per operator."""
    return dataclasses.replace(
        small_target(stages=stages, memory_kb=32), phv_bits=1 << 14,
        stateless_alus_per_stage=64, stateful_alus_per_stage=16)


def compile_wide(source):
    return compile_source(source, roomy(), source_name="wide")


def packets_for(pairs, shifts=(0,)):
    return [Packet(fields={"a": a, "b": b, "s": s, "slot": (a ^ b) & 1})
            for a, b in pairs for s in shifts]


def fully_vector(compiled) -> bool:
    vplan = Pipeline(compiled, engine="vector").vplan
    return vplan.ok and not vplan.island_stages


INPUTS = """
    bit<64> a;
    bit<64> b;
    bit<8> s;
    bit<1> slot;
"""

#: One output field per operator, so a wrong lane names its operator.
WIDE_OPS = "struct metadata {" + INPUTS + """
    bit<64> mov;
    bit<64> tern;
    bit<64> band;
    bit<64> bor;
    bit<64> bxor;
    bit<16> low;
    bit<1> eq;
    bit<1> ne;
    bit<1> eq_small;
    bit<1> lt;
    bit<1> le;
    bit<1> gt;
    bit<1> ge;
    bit<1> gt_small;
    bit<1> truthy;
    bit<1> falsy;
    bit<1> both;
    bit<1> either;
    bit<64> shr;
    bit<64> lo;
    bit<64> hi;
    bit<64> capped;
    bit<32> h;
}
control Ingress(inout metadata meta) {
    apply {
        meta.mov = meta.a;
        meta.tern = meta.a > meta.b ? meta.a : 7;
        meta.band = meta.a & meta.b;
        meta.bor = meta.a | meta.b;
        meta.bxor = meta.a ^ meta.b;
        meta.low = meta.a & 65535;
        meta.eq = meta.a == meta.b;
        meta.ne = meta.a != meta.b;
        meta.eq_small = meta.a == 1;
        meta.lt = meta.a < meta.b;
        meta.le = meta.a <= meta.b;
        meta.gt = meta.a > meta.b;
        meta.ge = meta.a >= meta.b;
        meta.gt_small = meta.a > 1;
        meta.truthy = meta.a ? 1 : 0;
        meta.falsy = !meta.a;
        meta.both = meta.a && meta.b;
        meta.either = meta.a || meta.b;
        meta.shr = meta.a >> meta.s;
        meta.lo = min(meta.a, meta.b);
        meta.hi = max(meta.a, meta.b, 9);
        meta.capped = min(meta.a, 1000);
        meta.h = hash(3, meta.a, meta.a + meta.b);
    }
}
"""

#: Wrapped arithmetic (Mod64) and everything it may still flow into.
MOD_OPS = "struct metadata {" + INPUTS + """
    bit<64> add;
    bit<64> sub;
    bit<64> mul;
    bit<64> shl;
    bit<64> inv;
    bit<64> neg;
    bit<64> big;
    bit<64> chain;
    bit<64> masked;
    bit<64> mixed;
    bit<64> picked;
    bit<32> narrow;
    bit<1> parity;
}
control Ingress(inout metadata meta) {
    apply {
        meta.add = meta.a + meta.b;
        meta.sub = meta.a - meta.b;
        meta.mul = meta.a * meta.b;
        meta.shl = meta.a << meta.s;
        meta.inv = ~meta.a;
        meta.neg = -meta.a;
        meta.big = 18446744073709551616 + meta.s;
        meta.chain = (meta.a + meta.b) * 3 - (meta.b << 1);
        meta.masked = (meta.a * meta.b) & meta.a;
        meta.mixed = ((meta.a - meta.b) | 5) ^ (meta.b + 1);
        meta.picked = meta.s > 1 ? meta.a - 1 : meta.b;
        meta.narrow = meta.a + meta.b;
        meta.parity = (meta.a + meta.b) & 1;
    }
}
"""

REG64_OPS = "struct metadata {" + INPUTS + """
    bit<64> seen;
    bit<64> total;
    bit<64> gated;
    bit<64> old;
}
register<bit<64>>[2] plain;
register<bit<64>>[2] acc;
register<bit<64>>[2] gate;
register<bit<64>>[2] blind;
register<bit<64>>[2] swp;
register<bit<64>>[2] top;
register<bit<64>>[2] bottom;
register<bit<64>>[2] last;
action gated_add() {
    gate.cond_add_read(meta.gated, meta.slot, meta.b, meta.a);
}
action exchange() {
    swp.swap(meta.old, meta.slot, meta.a + meta.b);
}
control Ingress(inout metadata meta) {
    apply {
        plain.read(meta.seen, meta.slot);
        acc.add_read(meta.total, meta.slot, meta.a);
        gated_add();
        blind.add(meta.slot, meta.a * meta.b);
        exchange();
        top.max_update(meta.slot, meta.a);
        bottom.min_update(meta.slot, meta.a);
        last.write(meta.slot, meta.a - meta.b);
    }
}
"""


def preload(pipe):
    pipe.registers.get("plain[0]").load([(1 << 64) - 1, 1 << 63])
    pipe.registers.get("bottom[0]").load([(1 << 64) - 1] * 2)


class TestWideOperators:
    @pytest.fixture(scope="class")
    def wide_ops(self):
        return compile_wide(WIDE_OPS)

    @pytest.fixture(scope="class")
    def mod_ops(self):
        return compile_wide(MOD_OPS)

    @pytest.fixture(scope="class")
    def reg_ops(self):
        return compile_wide(REG64_OPS)

    def test_all_three_programs_fully_vectorise(self, wide_ops, mod_ops,
                                                reg_ops):
        assert all(map(fully_vector, (wide_ops, mod_ops, reg_ops)))

    def test_u64_operators_at_the_edges(self, wide_ops):
        pairs = [(a, b) for a in EDGES for b in EDGES]
        assert_equivalent(wide_ops, packets_for(pairs, SHIFTS))

    def test_mod64_operators_at_the_edges(self, mod_ops):
        pairs = [(a, b) for a in EDGES for b in EDGES]
        assert_equivalent(mod_ops, packets_for(pairs, SHIFTS))

    def test_64bit_cells_with_same_cell_collisions(self, reg_ops):
        # Two cells, so every kernel sees long same-cell runs: the
        # running add_read sum wraps past 2**64 and the swap chain and
        # extrema cross the int64 sign boundary inside one batch.
        pairs = [(a, b) for a in EDGES for b in EDGES] * 2
        assert_equivalent(reg_ops, packets_for(pairs), prepare=preload)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(pairs=st.lists(st.tuples(wide, wide), min_size=1, max_size=25),
           shift=st.integers(min_value=0, max_value=255))
    def test_random_wide_values(self, wide_ops, mod_ops, reg_ops, pairs,
                                shift):
        packets = packets_for(pairs, (shift,))
        assert_equivalent(wide_ops, packets)
        assert_equivalent(mod_ops, packets)
        assert_equivalent(reg_ops, packets, prepare=preload)


def refused(statement: str, extra: str = "") -> str:
    return ("struct metadata {" + INPUTS + "    bit<64> res;\n}\n" + extra
            + "control Ingress(inout metadata meta) {\n    apply {\n        "
            + statement + "\n    }\n}\n")


WIDE_KEYED = """
action mark(bit<8> v) {
    meta.res = v;
}
table wide_keyed {
    key = {
        meta.a : exact;
    }
    actions = {
        mark;
        NoAction;
    }
    size = 16;
    default_action = NoAction;
}
"""


class TestStillIslands:
    """What a column cannot decide must fall back, never guess."""

    @pytest.mark.parametrize("statement, reason", [
        ("meta.res = meta.a / 3;", "'/' on a 64-bit operand"),
        ("meta.res = meta.a % meta.b;", "'%' on a 64-bit operand"),
        ("meta.res = (meta.a + meta.b) == 0;", "known only mod 2**64"),
        ("meta.res = (meta.a + meta.b) ? 1 : 2;", "known only mod 2**64"),
        ("meta.res = (meta.a * 2) >> 1;", "known only mod 2**64"),
        ("meta.res = meta.a < meta.s - 1;", "possibly negative"),
        ("meta.res = meta.s << meta.a;", "64-bit shift amount"),
    ])
    def test_refused_expressions_island_and_stay_exact(self, statement,
                                                       reason):
        compiled = compile_wide(refused(statement))
        vplan = Pipeline(compiled, engine="vector").vplan
        assert vplan.ok and vplan.island_stages
        assert reason in vplan.describe()
        pairs = [(a, b) for a in EDGES for b in EDGES]
        assert_equivalent(compiled, packets_for(pairs, (0, 1)))

    def test_wide_table_key_islands_and_stays_exact(self):
        compiled = compile_wide(refused("wide_keyed.apply();", WIDE_KEYED))

        def prepare(pipe):
            pipe.table_add("wide_keyed", match=((1 << 64) - 1,),
                           action="mark", action_data=(5,))
            pipe.table_add("wide_keyed", match=(1,), action="mark",
                           action_data=(6,))

        vplan = Pipeline(compiled, engine="vector").vplan
        assert "64-bit table key" in vplan.describe()
        assert_equivalent(compiled, packets_for([(a, 0) for a in EDGES]),
                          prepare=prepare)

    def test_wrapped_register_index_islands(self):
        source = refused("cells.add(meta.a, 1);",
                         "register<bit<64>>[4] cells;\n")
        compiled = compile_wide(source)
        assert "64-bit register index" in Pipeline(
            compiled, engine="vector").vplan.describe()
        assert_equivalent(compiled, packets_for([(a, 0) for a in EDGES]))


class TestDeadCodeIsNotLowered:
    """A left operand (or ternary condition) that folds decides what is
    evaluated at all on the scalar engines; the lowerer must not island
    on the side that never runs."""

    SOURCE = "struct metadata {" + INPUTS + """
    bit<1> first;
    bit<1> second;
    bit<8> third;
}
control Ingress(inout metadata meta) {
    apply {
        meta.first = (0 == 0) || ((meta.a >> (0 - 1)) & 1) == 1;
        meta.second = (1 == 0) && (meta.a >> (0 - 1));
        meta.third = 1 ? meta.s : meta.a >> (0 - 1);
    }
}
"""

    def test_dead_negative_shift_does_not_island(self):
        compiled = compile_wide(self.SOURCE)
        assert fully_vector(compiled)
        assert_equivalent(compiled, packets_for([(a, 1) for a in EDGES]))

    def test_live_side_is_still_checked(self):
        compiled = compile_wide(refused(
            "meta.res = (1 == 0) || (meta.a >> (0 - 1));"))
        assert "negative shift" in Pipeline(
            compiled, engine="vector").vplan.describe()


def t6():
    return dataclasses.replace(tofino(), stages=6,
                               memory_bits_per_stage=64 * 1024)


APPS = {
    "cms": lambda target: compile_source(CMS_SOURCE, target),
    "netcache": lambda target: compile_source(netcache_source(), target),
    "netcache-linked": lambda target: compile_linked(
        netcache_linked(), target),
    "sketchlearn": lambda target: compile_source(
        sketchlearn_source(), target),
    "conquest": lambda target: compile_source(conquest_source(), target),
    "precision": lambda target: compile_source(precision_source(), target),
}


def count_calls(run) -> int:
    """Python-level and C calls ``run()`` makes — a fixed cost as a
    count, so a gate on it reads no clock."""
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def calls_per_batch(pipe, columns) -> int:
    """Calls one warm ``process_columns`` batch makes."""
    pipe.process_columns(columns)
    return count_calls(lambda: pipe.process_columns(columns))


def batch_columns(app: str) -> dict:
    """A 512-lane batch of ``app``'s input fields."""
    keys = (np.arange(512, dtype=np.uint64) * 2654435761) % 997
    if app.startswith("netcache"):
        return {"req_key": keys}
    if app == "conquest":
        return {"flow_id": keys, "pkt_bytes": keys % 1500, "window": keys % 4}
    return {"flow_id": keys}


#: ``calls_per_batch`` of each app's ``batch_columns`` on ``t6`` once the
#: vector plan stacked the unrolled rows' hashes and re-rolled their
#: register kernels (Python 3.11; before: CMS 166, NetCache 221,
#: SketchLearn 143, ConQuest 234, Precision 237). The gates on CMS and
#: NetCache are 10 % above them.
BATCH_CALLS = {"cms": 108, "netcache": 138, "netcache-linked": 138,
               "sketchlearn": 107, "conquest": 152, "precision": 175}
BATCH_GATED = ("cms", "netcache")


def warm_shard():
    """A fleet shard's NetCache (linked, ``t6``, the fleet's
    ``hot_threshold`` of 4) after 80 000 Zipf(10 000, 0.9) requests in
    500-lane calls — a full store, so the replay mostly rejects — and the
    next 500 requests."""
    app = NetCacheApp(t6(), hot_threshold=4,
                      compiled=APPS["netcache-linked"](t6()))
    keys = ZipfGenerator(10_000, alpha=0.9, seed=4).sample(80_500)
    for start in range(0, 80_000, 500):
        app.run_trace(keys[start:start + 500])
    return app, keys[80_000:]


def calls_per_run_trace(app, keys) -> int:
    """Calls one warm ``NetCacheApp.run_trace(keys)`` makes, from the
    app's state now (which it leaves as it found it): the serve's fixed
    cost, kernels and controller replay together."""
    state = app.snapshot()
    app.run_trace(keys)
    app.restore(state)
    try:
        return count_calls(lambda: app.run_trace(keys))
    finally:
        app.restore(state)


#: ``calls_per_run_trace(*warm_shard())`` once the vector plan re-rolled
#: NetCache's rows and the replay kept each slot's occupant counters
#: (384 before, 554 before the replay decided from a bound first; Python
#: 3.11, which unlike 3.12 counts a comprehension as a call). The gate is
#: 10 % above it.
RUN_TRACE_CALLS = 276


def assert_generated(vplan):
    """Zero islands, every stage a block of the one generated function."""
    assert vplan.ok and vplan.island_stages == [], vplan.describe()
    for splan, kernel in vplan.stage_exec:
        form = vplan.forms[splan.stage]
        assert form == "straight-line" or form.startswith("buffered: ")
        assert f"# stage {splan.stage}\n" in vplan.source
        assert kernel is not None
    assert [sp for sp, _kernel in vplan.stage_exec] == vplan.plan.stages


class TestAppsHaveNoIslands:
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_t6(self, app):
        pipe = Pipeline(APPS[app](t6()), engine="vector")
        assert_generated(pipe.vplan)
        # The thousand-lane tax, as a count: 773 calls a batch when the
        # stages were trees of closures.
        if app in BATCH_GATED:
            calls = calls_per_batch(pipe, batch_columns(app))
            assert calls <= 1.1 * BATCH_CALLS[app]

    # The ILP on the full 12-stage target is the slow part; the linked
    # program lowers from the same rendered source as plain NetCache.
    @pytest.mark.parametrize("app", ["cms", "netcache", "sketchlearn"])
    def test_tofino(self, app):
        assert_generated(Pipeline(APPS[app](tofino()), engine="vector").vplan)


def test_calls_per_warm_run_trace():
    """A 500-lane serve's fixed cost — kernels plus the controller
    replay — as a count."""
    assert calls_per_run_trace(*warm_shard()) <= 1.1 * RUN_TRACE_CALLS
