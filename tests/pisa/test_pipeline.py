"""Pipeline-simulator semantics: stage snapshots, guards, validation."""

import functools

import numpy as np
import pytest

from repro import obs
from repro.core import compile_source
from repro.pisa import ENGINES, Packet, Pipeline, small_target
from repro.pisa.interp import SimulationError

from .test_vector_wide import compiled_app, t6


def build(source: str, **target_kwargs):
    target = small_target(**{"stages": 6, "memory_kb": 32, **target_kwargs})
    compiled = compile_source(source, target)
    return compiled, Pipeline(compiled)


COUNTER = """
struct metadata {
    bit<32> flow_id;
    bit<32> total;
}
register<bit<32>>[16] counts;
action bump() {
    counts.add_read(meta.total, meta.flow_id, 1);
}
control Ingress(inout metadata meta) {
    apply { bump(); }
}
"""


class TestBasicExecution:
    def test_stateful_counter_across_packets(self):
        _, pipe = build(COUNTER)
        for expected in (1, 2, 3):
            result = pipe.process(Packet(fields={"flow_id": 5}))
            assert result.get("meta.total") == expected
        # A different flow hits a different cell.
        assert pipe.process(Packet(fields={"flow_id": 6})).get("meta.total") == 1

    def test_unknown_packet_field_rejected(self):
        _, pipe = build(COUNTER)
        with pytest.raises(SimulationError, match="matches no metadata"):
            pipe.process(Packet(fields={"bogus": 1}))

    def test_register_dump_via_control_plane(self):
        _, pipe = build(COUNTER)
        pipe.process(Packet(fields={"flow_id": 3}))
        dump = pipe.register_dump("counts")
        assert dump.sum() == 1


SEQUENTIAL = """
struct metadata {
    bit<32> flow_id;
    bit<32> a;
    bit<32> b;
}
control Ingress(inout metadata meta) {
    apply {
        meta.a = meta.flow_id + 1;
        meta.b = meta.a * 2;
    }
}
"""


class TestDependenciesRespected:
    def test_sequenced_assignments_see_earlier_writes(self):
        # meta.b depends on meta.a; the compiler places them in different
        # stages and the simulator propagates between stages.
        compiled, pipe = build(SEQUENTIAL)
        stages = {u.label: u.stage for u in compiled.units}
        assert len(set(stages.values())) == 2  # two stages used
        result = pipe.process(Packet(fields={"flow_id": 10}))
        assert result.get("meta.a") == 11
        assert result.get("meta.b") == 22


GUARDED = """
struct metadata {
    bit<32> flow_id;
    bit<32> flag;
    bit<32> res;
}
control Ingress(inout metadata meta) {
    apply {
        if (meta.flow_id > 100) {
            meta.flag = 1;
        } else {
            meta.flag = 2;
        }
        if (meta.flag == 1) {
            meta.res = 7;
        }
    }
}
"""


class TestGuards:
    def test_then_and_else_branches(self):
        _, pipe = build(GUARDED)
        high = pipe.process(Packet(fields={"flow_id": 200}))
        assert high.get("meta.flag") == 1
        assert high.get("meta.res") == 7
        low = pipe.process(Packet(fields={"flow_id": 50}))
        assert low.get("meta.flag") == 2
        assert low.get("meta.res") == 0


TABLED = """
struct metadata {
    bit<32> dst;
    bit<9> egress;
}
action set_port(bit<9> port) {
    meta.egress = port;
}
table route {
    key = { meta.dst : exact; }
    actions = { set_port; NoAction; }
    size = 8;
    default_action = NoAction;
}
control Ingress(inout metadata meta) {
    apply { route.apply(); }
}
"""


class TestTables:
    def test_table_hit_runs_action_with_data(self):
        _, pipe = build(TABLED)
        pipe.table_add("route", match=(42,), action="set_port", action_data=(7,))
        hit = pipe.process(Packet(fields={"dst": 42}))
        assert hit.hit("route")
        assert hit.get("meta.egress") == 7

    def test_table_miss_runs_default(self):
        _, pipe = build(TABLED)
        miss = pipe.process(Packet(fields={"dst": 1}))
        assert not miss.hit("route")
        assert miss.get("meta.egress") == 0

    def test_entry_removal(self):
        _, pipe = build(TABLED)
        pipe.table_add("route", match=(42,), action="set_port", action_data=(7,))
        assert pipe.table_remove("route", (42,))
        assert not pipe.process(Packet(fields={"dst": 42})).hit("route")


class TestValidation:
    def test_validation_catches_misplaced_register(self):
        from repro.pisa.pipeline import ValidationError

        target = small_target(stages=6, memory_kb=32)
        compiled = compile_source(COUNTER, target)  # fresh artifact to mutate
        unit = next(u for u in compiled.units if u.instance.registers)
        unit.stage = (unit.stage + 1) % target.stages
        with pytest.raises(ValidationError):
            Pipeline(compiled)

    def test_packets_processed_counter(self):
        _, pipe = build(COUNTER)
        pipe.process_many([Packet(fields={"flow_id": i}) for i in range(5)])
        assert pipe.packets_processed == 5


#: The six apps: how to compile each (on ``t6``), and the packet fields
#: it reads.
APPS = {
    app: (functools.partial(compiled_app, app, t6()), fields)
    for app, fields in {
        "cms": ("flow_id",),
        "netcache": ("req_key", "dst"),
        "netcache-linked": ("req_key", "dst"),
        "sketchlearn": ("flow_id",),
        "conquest": ("flow_id", "window", "pkt_bytes"),
        "precision": ("flow_id",),
    }.items()
}


class TestProcessColumns:
    """``process_columns`` is ``process_many`` of the packets its columns
    spell out - on every engine, observably."""

    @pytest.fixture(scope="class")
    def compiled(self):
        return lambda app: APPS[app][0]()

    @staticmethod
    def columns(fields, n=200):
        rng = np.random.default_rng(7)
        columns = {"flow_id": rng.integers(0, 40, n, dtype=np.int64),
                   "req_key": rng.integers(0, 1 << 33, n, dtype=np.uint64),
                   "dst": rng.integers(0, 3, n),
                   "window": rng.integers(0, 4, n).astype(np.int32),
                   "pkt_bytes": 64}      # a plain int: every lane
        return {name: columns[name] for name in fields}

    @staticmethod
    def pipeline(compiled, engine):
        pipe = Pipeline(compiled, engine=engine)
        if "route" in pipe.tables:
            pipe.table_add("route", (1,), "set_port", (5,))
        pipe.vector_chunk = 64          # several chunks per batch
        return pipe

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("app", sorted(APPS))
    def test_equals_process_many(self, compiled, app, engine):
        columns = self.columns(APPS[app][1])
        n = 200
        packets = [
            Packet(fields={name: int(np.broadcast_to(column, n)[lane])
                           for name, column in columns.items()})
            for lane in range(n)]
        by_packet = self.pipeline(compiled(app), engine)
        by_column = self.pipeline(compiled(app), engine)
        counter = obs.metrics.counter("p4all_packets_total",
                                      labels=("engine",))
        before = counter.value(engine=engine)
        obs.trace.enable()
        try:
            expected = by_packet.process_many(packets)
            results = by_column.process_columns(columns)
            spans = obs.trace.spans_named("pisa.batch")
        finally:
            obs.trace.disable()
            obs.trace.reset()
        assert len(results) == len(expected) == n
        for key in by_packet.phv_layout.fields:
            assert np.array_equal(results.column(key), expected.column(key))
        for table in by_packet.tables:
            assert np.array_equal(results.hit_column(table),
                                  expected.hit_column(table))
        assert ([(r.phv, r.table_hits) for r in results]
                == [(r.phv, r.table_hits) for r in expected])
        left = by_column.registers.export_state()
        right = by_packet.registers.export_state()
        assert left.keys() == right.keys()
        assert all(np.array_equal(left[name], right[name]) for name in left)
        assert by_column.packets_processed == by_packet.packets_processed == n
        assert spans[0].attrs == spans[1].attrs
        assert spans[1].attrs["packets"] == n
        assert counter.value(engine=engine) == before + 2 * n

    @pytest.mark.parametrize("engine", ENGINES)
    def test_collect_false_leaves_the_same_registers(self, compiled, engine):
        columns = self.columns(("flow_id",))
        counted = self.pipeline(compiled("cms"), engine)
        collected = self.pipeline(compiled("cms"), engine)
        assert counted.process_columns(columns, collect=False) == 200
        collected.process_columns(columns)
        assert np.array_equal(counted.register_dump("cms_sketch", 0),
                              collected.register_dump("cms_sketch", 0))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_all_scalars_is_one_lane(self, compiled, engine):
        [result] = self.pipeline(compiled("cms"), engine).process_columns(
            {"flow_id": 9})
        one_packet = self.pipeline(compiled("cms"), engine).process(
            Packet(fields={"flow_id": 9}))
        assert result.phv == one_packet.phv

    @pytest.mark.parametrize("engine", ENGINES)
    def test_values_beyond_64_bits_are_masked(self, compiled, engine):
        pipe = self.pipeline(compiled("cms"), engine)
        [wide, plain] = pipe.process_columns(
            {"flow_id": [(1 << 70) + 5, 5]})
        assert wide.get("meta.flow_id") == plain.get("meta.flow_id") == 5

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_batch(self, compiled, engine):
        pipe = self.pipeline(compiled("cms"), engine)
        results = pipe.process_columns({"flow_id": np.empty(0, np.int64)})
        assert len(results) == 0 and results.column("meta.cms_min").size == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rejected_inputs(self, compiled, engine):
        pipe = self.pipeline(compiled("cms"), engine)
        with pytest.raises(SimulationError, match="no_such_field"):
            pipe.process_columns({"flow_id": [1, 2], "no_such_field": 0})
        with pytest.raises(ValueError, match="equally long"):
            pipe.process_columns({"flow_id": [1, 2], "cms_min": [1, 2, 3]})
        with pytest.raises(TypeError, match="integers"):
            pipe.process_columns({"flow_id": [1.5, 2.0]})
        assert pipe.packets_processed == 0
