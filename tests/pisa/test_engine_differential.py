"""Differential testing: compiled plan ≡ interpreter ≡ vector engine.

The compiled engine (`repro.pisa.compiled`) and the columnar vector
engine (`repro.pisa.vector`) are optimizations, not semantics changes:
for every example app — CMS, Bloom filter, key-value store, NetCache
with its routing table — random packet streams must produce identical
PHV results, table hits, and final register state on all three engines,
including after a runtime hot-swap with state migration.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import compile_source
from repro.pisa import Packet, Pipeline, small_target
from repro.structures import BLOOM_SOURCE, CMS_SOURCE, KV_SOURCE

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

flow_ids = st.lists(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    min_size=1, max_size=60,
)


@pytest.fixture(scope="module")
def small6():
    return small_target(stages=6, memory_kb=32)


@pytest.fixture(scope="module", params=["cms", "bloom", "kv"],
                ids=["cms", "bloom", "kv"])
def compiled_app(request, small6):
    source = {"cms": CMS_SOURCE, "bloom": BLOOM_SOURCE,
              "kv": KV_SOURCE}[request.param]
    return compile_source(source, small6, source_name=request.param)


def _register_state(pipeline):
    state = {}
    for alloc in pipeline.compiled.registers:
        name = f"{alloc.family}[{alloc.index}]"
        state[name] = list(pipeline.registers.get(name).dump())
    return state


def assert_equivalent(compiled, packets, prepare=None):
    """Run the same packets through all engines; everything must match."""
    engines = {}
    for engine in ("compiled", "interp", "vector"):
        pipe = Pipeline(compiled, engine=engine)
        if prepare is not None:
            prepare(pipe)
        results = pipe.process_many(list(packets))
        engines[engine] = (pipe, results)
    pc, rc = engines["compiled"]
    for other in ("interp", "vector"):
        po, ro = engines[other]
        for n, (a, b) in enumerate(zip(rc, ro)):
            assert a.phv == b.phv, f"packet {n}: PHV diverged on {other}"
            assert a.table_hits == b.table_hits, \
                f"packet {n}: hits diverged on {other}"
        assert _register_state(pc) == _register_state(po), \
            f"register state diverged on {other}"


class TestExampleApps:
    @_SETTINGS
    @given(flows=flow_ids)
    def test_library_apps_equivalent(self, compiled_app, flows):
        packets = [Packet(fields={"flow_id": f}) for f in flows]
        assert_equivalent(compiled_app, packets)

    def test_compiled_engine_builds_plan(self, compiled_app):
        pipe = Pipeline(compiled_app, engine="compiled")
        assert pipe.plan is not None
        assert pipe.plan.stages
        # All three library apps are fully static: every stage is
        # emitted straight-line (it is where the throughput target lives).
        assert "def _fast_run" in pipe.plan.fast_source
        assert [sp.buffered for sp in pipe.plan.stages] == (
            [""] * len(pipe.plan.stages))


class TestCollisionBatches:
    """The vector engine's same-key read-after-write hazard handling:
    batches engineered to hit the same register cells many times within
    one kernel invocation must still match the sequential engines
    exactly (segmented prefix sums or a scalar island — either way,
    bit-for-bit)."""

    @_SETTINGS
    @given(
        hot=st.lists(st.integers(min_value=0, max_value=3),
                     min_size=4, max_size=80),
        salt=st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_same_key_collision_batches(self, compiled_app, hot, salt):
        # Mostly a handful of hot keys (guaranteed same-cell collisions
        # within every batch), with one arbitrary key mixed in.
        flows = [h * 7 + 1 for h in hot] + [salt]
        packets = [Packet(fields={"flow_id": f}) for f in flows]
        assert_equivalent(compiled_app, packets)

    def test_single_hot_key_long_batch(self, compiled_app):
        packets = [Packet(fields={"flow_id": 42}) for _ in range(300)]
        assert_equivalent(compiled_app, packets)


class TestNetCache:
    """Tables, actions with data, guards, and the cache controller."""

    @pytest.fixture(scope="class")
    def nc_compiled(self):
        import dataclasses

        from repro.apps.netcache import netcache_source
        from repro.pisa.resources import tofino

        mini = dataclasses.replace(
            tofino(), stages=6, memory_bits_per_stage=64 * 1024
        )
        return compile_source(
            netcache_source(), mini, source_name="netcache"
        )

    @_SETTINGS
    @given(
        keys=st.lists(st.integers(min_value=1, max_value=200),
                      min_size=1, max_size=60),
        dsts=st.lists(st.integers(min_value=0, max_value=5),
                      min_size=1, max_size=60),
    )
    def test_route_table_and_sketch_equivalent(self, nc_compiled, keys, dsts):
        def prepare(pipe):
            pipe.table_add("route", (1,), "set_port", (7,))
            pipe.table_add("route", (2,), "set_port", (9,))

        packets = [
            Packet(fields={"req_key": k, "dst": d})
            for k, d in zip(keys, dsts * (len(keys) // len(dsts) + 1))
        ]
        assert_equivalent(nc_compiled, packets, prepare=prepare)

    def test_app_with_controller_equivalent(self, nc_compiled):
        import dataclasses

        from repro.apps.netcache import NetCacheApp
        from repro.pisa.resources import tofino
        from repro.workloads import ZipfGenerator

        mini = dataclasses.replace(
            tofino(), stages=6, memory_bits_per_stage=64 * 1024
        )
        keys = ZipfGenerator(1000, alpha=1.3, seed=17).sample(2000)
        apps = {}
        for engine in ("compiled", "interp", "vector"):
            app = NetCacheApp(mini, hot_threshold=4, compiled=nc_compiled,
                              engine=engine)
            apps[engine] = (app, app.run_trace(keys))
        ac, sc = apps["compiled"]
        for other in ("interp", "vector"):
            ao, so = apps[other]
            assert sc == so, f"stats diverged on {other}"
            assert sorted(ac.cached_entries()) == sorted(ao.cached_entries())
            assert (_register_state(ac.pipeline)
                    == _register_state(ao.pipeline))


class TestPostMigration:
    """Equivalence must survive a hot-swap: warm a pipeline, migrate its
    state into a smaller layout, and diff the engines on the new app."""

    def test_migrated_apps_equivalent(self):
        import dataclasses

        from repro.apps.netcache import NetCacheApp, netcache_source
        from repro.pisa.resources import tofino
        from repro.workloads import ZipfGenerator

        mini64 = dataclasses.replace(
            tofino(), stages=6, memory_bits_per_stage=64 * 1024
        )
        mini32 = dataclasses.replace(mini64, memory_bits_per_stage=32 * 1024)
        source = netcache_source(with_routing=False)
        compiled64 = compile_source(source, mini64, source_name="netcache")
        compiled32 = compile_source(source, mini32, source_name="netcache")

        old = NetCacheApp(mini64, hot_threshold=4, compiled=compiled64)
        old.run_trace(ZipfGenerator(1500, alpha=1.3, seed=5).sample(3000))
        assert old.cached_entries()

        new_apps = {}
        for engine in ("compiled", "interp", "vector"):
            app = NetCacheApp(mini32, hot_threshold=4, compiled=compiled32,
                              engine=engine)
            old.migrate_to(app)
            new_apps[engine] = app
        ac = new_apps["compiled"]
        for other in ("interp", "vector"):
            assert (_register_state(ac.pipeline)
                    == _register_state(new_apps[other].pipeline))

        # Post-swap traffic behaves identically on every engine.
        keys = ZipfGenerator(1500, alpha=1.3, seed=6).sample(2000)
        stats = {name: app.run_trace(keys) for name, app in new_apps.items()}
        for other in ("interp", "vector"):
            ao = new_apps[other]
            assert stats["compiled"] == stats[other]
            assert sorted(ac.cached_entries()) == sorted(ao.cached_entries())
            assert (_register_state(ac.pipeline)
                    == _register_state(ao.pipeline))


class TestGeneratedLinkedPrograms:
    """Random verified-isolated module pairs (the property-test
    generator) must behave identically on every engine when co-linked —
    engine equivalence is not a property of the hand-written examples
    only."""

    @_SETTINGS
    @given(
        specs=st.sampled_from([
            [("ma", 1, 256), ("mb", 2, 512)],
            [("ma", 2, 512), ("mb", 1, 1024)],
            [("ma", 1, 512), ("mb", 1, 512), ("mc", 2, 256)],
        ]),
        flows=flow_ids,
    )
    def test_generated_linked_equivalent(self, small6, specs, flows):
        from repro.core import compile_linked
        from repro.link import link_files

        from tests.property.generators import clean_module_source

        linked = link_files(
            [(name, clean_module_source(name, rows, cells))
             for name, rows, cells in specs]
        )
        compiled = compile_linked(linked, small6)
        assert compiled.verify is not None and compiled.verify.clean
        packets = [Packet(fields={"flow_id": f}) for f in flows]
        assert_equivalent(compiled, packets)


TOTAL_TABLE = """
struct metadata {
    bit<32> dst;
    bit<8> sel;
    bit<16>[4] arr;
    bit<32> egress;
    bit<16> res;
    bit<32> h;
    bit<32> h2;
    bit<64> q;
    bit<32> cnt;
}
register<bit<32>>[8][2] bank;
action set_port(bit<32> port) { meta.egress = port; }
action put(bit<8> v) { meta.arr[v] = meta.arr[v] + 3; }
action pick(bit<8> v) { meta.res = meta.arr[v]; }
action rd() { meta.res = meta.arr[meta.sel]; }
action wr() { meta.arr[meta.sel] = 9; }
action seed(bit<8> s) { meta.h = hash(s, meta.dst); }
action math(bit<8> d) {
    meta.q = meta.dst / d + meta.dst % d + (meta.dst << d) + (meta.dst >> d);
}
action bump(bit<8> r) { bank[r].add_read(meta.cnt, meta.dst, 1); }
table t {
    key = { meta.dst : exact; }
    actions = { set_port; put; pick; rd; wr; seed; math; bump; }
    size = 32;
}
control Ingress(inout metadata meta) {
    apply {
        meta.h2 = hash(meta.sel, meta.dst);
        t.apply();
        // Registers are allocated where a unit names them statically;
        // no test packet takes this branch, so bump() is bank's only
        // writer.
        if (meta.dst == 999) {
            bank[0].add(meta.dst, 1);
            bank[1].add(meta.dst, 1);
        }
    }
}
"""

#: dst -> the entry it selects: action data, action-parameter and
#: PHV-valued field indices (read and write), an action-parameter
#: register instance and hash seed, and / % by zero, shifts >= 64.
TOTAL_ENTRIES = {
    1: ("set_port", (7,)), 2: ("put", (1,)), 3: ("pick", (2,)),
    4: ("rd", ()), 5: ("wr", ()), 6: ("seed", (3,)), 7: ("math", (0,)),
    8: ("math", (70,)), 9: ("math", (3,)), 10: ("bump", (1,)),
}

UNDECLARED = """
struct metadata { bit<8> a; }
control Ingress(inout metadata meta) {
    apply { meta.ghost = meta.a + 1; }
}
"""

GUARDED_FLOAT = """
struct metadata { bit<8> a; bit<8> b; }
control Ingress(inout metadata meta) {
    apply { if (meta.a > 3) { meta.b = 1.5; } else { meta.b = meta.a; } }
}
"""

WRITE_TWICE = """
struct metadata { bit<16> a; bit<16> res; }
control Ingress(inout metadata meta) {
    apply {
        meta.res = meta.a + 1;
        meta.res = meta.a + 2;
    }
}
"""


def assert_every_stage_generated(compiled):
    """Every active stage of the program is generated code — in
    ``_fast_run`` and as the function the vector engine's islands and
    bail re-runs call."""
    pipe = Pipeline(compiled, engine="vector", validate=False)
    plan = pipe.plan
    assert [sp.stage for sp in plan.stages] == [
        s for s, units in enumerate(pipe._stage_units) if units]
    assert not hasattr(plan, "run")
    for sp in plan.stages:
        assert f"# stage {sp.stage}\n" in plan.fast_source
        assert sp.run.__code__.co_filename == "<pisa-execution-plan>"
        assert f"stage {sp.stage} (" in plan.describe()
    assert [sp for sp, _kernel in pipe.vplan.stage_exec] == plan.stages
    return pipe


def outcomes(compiled, packets, prepare=None):
    """Per engine, how ``process_many`` ends: the exception's type and
    message, or None when the batch completes."""
    ends = {}
    for engine in ("interp", "compiled", "vector"):
        pipe = Pipeline(compiled, engine=engine, validate=False)
        if prepare is not None:
            prepare(pipe)
        try:
            pipe.process_many(list(packets))
            ends[engine] = None
        except Exception as exc:  # the comparison *is* the assertion
            ends[engine] = (type(exc).__name__, str(exc))
    return ends


class TestGeneratedTierIsTotal:
    """The generated plan runs everything the interpreter can — there is
    no other scalar tier behind it — and fails exactly as it does."""

    @pytest.fixture(scope="class")
    def tiny(self):
        return small_target(stages=4, memory_kb=8)

    @pytest.fixture(scope="class")
    def table_program(self, tiny):
        return compile_source(TOTAL_TABLE, tiny, source_name="total")

    @staticmethod
    def install(pipe, extra=()):
        for dst, (action, data) in [*TOTAL_ENTRIES.items(), *extra]:
            pipe.table_add("t", (dst,), action, data)

    def test_table_actions_and_dynamic_names(self, table_program):
        pipe = assert_every_stage_generated(table_program)
        assert [sp.buffered for sp in pipe.plan.stages] == ["table apply", ""]
        packets = [
            Packet(fields={"dst": dst, "sel": sel, "arr[1]": 40 + dst,
                           "arr[2]": 50})
            for dst in range(12) for sel in (0, 2, 200)
            if not (dst in (4, 5) and sel == 200)
        ]
        assert_equivalent(table_program, packets, prepare=self.install)

    @pytest.mark.parametrize("entry, error", [
        (("set_port", (1, 2)), "expects 1 data values, entry carries 2"),
        (("set_port", ()), "expects 1 data values, entry carries 0"),
        (("nope", ()), "selected unknown action 'nope'"),
        (("bump", (5,)), "bank[5]"),
        (("put", (9,)), "PHV field 'meta.arr[9]' was never allocated"),
    ], ids=["arity-over", "arity-under", "unknown-action",
            "register-instance", "field-index"])
    def test_bad_entries_fail_identically(self, table_program, entry, error):
        ends = outcomes(
            table_program,
            [Packet(fields={"dst": 1}), Packet(fields={"dst": 20})],
            prepare=lambda pipe: self.install(pipe, [(20, entry)]))
        assert ends["interp"] is not None and error in ends["interp"][1]
        assert ends["compiled"] == ends["vector"] == ends["interp"]

    def test_undeclared_field_write(self, tiny):
        compiled = compile_source(UNDECLARED, tiny, source_name="ghost")
        pipe = assert_every_stage_generated(compiled)
        assert "never allocated" in pipe.plan.stages[0].buffered
        ends = outcomes(compiled, [Packet(fields={"a": 1})])
        assert ends["interp"] == (
            "PhvError", "PHV field 'meta.ghost' was never allocated")
        assert ends["compiled"] == ends["vector"] == ends["interp"]

    def test_float_literal_raises_only_when_it_runs(self, tiny):
        compiled = compile_source(GUARDED_FLOAT, tiny, source_name="float")
        assert_every_stage_generated(compiled)
        quiet = [Packet(fields={"a": a}) for a in (0, 3, 2)]
        assert_equivalent(compiled, quiet)
        ends = outcomes(compiled, quiet + [Packet(fields={"a": 4})])
        assert ends["interp"] == (
            "SimulationError",
            "float literals cannot appear in data-plane code")
        assert ends["compiled"] == ends["vector"] == ends["interp"]

    def test_same_stage_write_conflict(self, tiny):
        import dataclasses

        compiled = compile_source(WRITE_TWICE, tiny, source_name="twice")
        # The compiler schedules the two writes apart; put them back in
        # one stage by hand.
        compiled = dataclasses.replace(compiled, units=[
            dataclasses.replace(unit, stage=0) for unit in compiled.units])
        pipe = assert_every_stage_generated(compiled)
        assert "overlapping write-sets" in pipe.plan.stages[0].buffered
        ends = outcomes(compiled, [Packet(fields={"a": 1})] * 3)
        assert ends["interp"] == (
            "SimulationError", "stage 0: units 'op1' and 'op2' write "
                               "different values to 'meta.res'")
        assert ends["compiled"] == ends["vector"] == ends["interp"]

    def test_six_apps_are_generated_end_to_end(self):
        from .test_pipeline import APPS

        for app, (build, _fields) in APPS.items():
            pipe = assert_every_stage_generated(build())
            assert pipe.vplan.island_stages == [], app

    def test_one_resolver_per_pipeline(self, table_program, monkeypatch):
        from repro.pisa import compiled as lowering

        built = []
        init = lowering._Lowering.__init__

        def counting(self, pipeline):
            built.append(pipeline)
            init(self, pipeline)

        monkeypatch.setattr(lowering._Lowering, "__init__", counting)
        pipe = Pipeline(table_program, engine="vector")
        assert built == [pipe]
