"""Vector engine unit tests: columnar kernels, scalar islands, runtime
bail-outs, the batch conflict check, and the flow-sharded fan-out."""

import numpy as np
import pytest

from repro.core import compile_source
from repro.pisa import Packet, Pipeline, small_target
from repro.pisa.interp import SimulationError
from repro.pisa.sharded import (
    classify_registers,
    run_inline,
    shard_assignments,
)

from .test_pipeline import COUNTER, GUARDED, TABLED, build


def packets_for(flows):
    return [Packet(fields={"flow_id": f}) for f in flows]


def register_state(pipe):
    return {
        name: list(pipe.registers.get(name).dump())
        for name in pipe.registers.names()
    }


def run_shards(pipe, packets, mode, collect=True, workers=2, **kwargs):
    """One ``workers``-way batch on the path ``process_many`` picks
    (``"pool"`` for a vector pipeline) or on the inline reference."""
    if mode == "inline":
        return run_inline(pipe, packets, collect, workers, **kwargs)
    return pipe.process_many(packets, collect=collect, workers=workers,
                             **kwargs)


def both(source, packets, prepare=None):
    """Run packets on compiled and vector pipelines; return both."""
    compiled, _ = build(source)
    out = {}
    for engine in ("compiled", "vector"):
        pipe = Pipeline(compiled, engine=engine)
        if prepare is not None:
            prepare(pipe)
        results = pipe.process_many(
            [Packet(fields=dict(p.fields)) for p in packets])
        out[engine] = (pipe, results)
    return out


def assert_exact(out):
    pc, rc = out["compiled"]
    pv, rv = out["vector"]
    assert len(rc) == len(rv)
    for i, (a, b) in enumerate(zip(rc, rv)):
        assert a.phv == b.phv, f"packet {i} PHV"
        assert a.table_hits == b.table_hits, f"packet {i} hits"
    assert register_state(pc) == register_state(pv)


class TestVectorKernels:
    def test_counter_fully_vectorized(self):
        _, pipe = build(COUNTER)
        pipe = Pipeline(pipe.compiled, engine="vector")
        assert pipe.vplan is not None and pipe.vplan.ok
        assert not pipe.vplan.island_stages
        assert "vectorized" in pipe.vplan.describe()

    def test_same_key_read_after_write_exact(self):
        # Every packet hits the same cell: the segmented prefix-sum
        # add_read must reproduce the sequential running count.
        out = both(COUNTER, packets_for([5] * 50 + [6, 5, 6]))
        assert_exact(out)
        _, rv = out["vector"]
        assert [r.get("meta.total") for r in rv[:3]] == [1, 2, 3]

    def test_branch_masks(self):
        out = both(GUARDED, [Packet(fields={"flow_id": f})
                             for f in (200, 50, 101, 100, 0)])
        assert_exact(out)

    def test_table_lookup_hits_and_misses(self):
        def prepare(pipe):
            pipe.table_add("route", match=(42,), action="set_port",
                           action_data=(7,))

        out = both(TABLED, [Packet(fields={"dst": d})
                            for d in (42, 1, 42, 9)], prepare=prepare)
        assert_exact(out)
        _, rv = out["vector"]
        assert [r.hit("route") for r in rv] == [True, False, True, False]

    def test_table_mutation_invalidates_lookup_cache(self):
        compiled, _ = build(TABLED)
        pipe = Pipeline(compiled, engine="vector")
        assert not pipe.process_many([Packet(fields={"dst": 42})])[0].hit("route")
        pipe.table_add("route", match=(42,), action="set_port",
                       action_data=(7,))
        hit = pipe.process_many([Packet(fields={"dst": 42})])[0]
        assert hit.hit("route") and hit.get("meta.egress") == 7
        pipe.table_remove("route", (42,))
        assert not pipe.process_many([Packet(fields={"dst": 42})])[0].hit("route")

    def test_single_packet_process_uses_scalar_path(self):
        compiled, _ = build(COUNTER)
        pipe = Pipeline(compiled, engine="vector")
        assert pipe.process(Packet(fields={"flow_id": 1})).get("meta.total") == 1


WIDE = """
struct metadata {
    bit<32> flow_id;
    bit<64> wide;
}
control Ingress(inout metadata meta) {
    apply {
        meta.wide = meta.flow_id - 1;
    }
}
"""


class TestWideFields:
    def test_wide_field_bit_patterns_round_trip(self):
        # flow_id 0 wraps to 2**64 - 1 in a 64-bit field: stored as an
        # int64 bit pattern in the column, converted back on the way out.
        out = both(WIDE, packets_for([0, 1, 7]))
        assert_exact(out)
        _, rv = out["vector"]
        assert rv[0].get("meta.wide") == (1 << 64) - 1
        assert rv[1].get("meta.wide") == 0


REG64 = """
struct metadata {
    bit<32> flow_id;
    bit<64> total;
}
register<bit<64>>[16] counts;
control Ingress(inout metadata meta) {
    apply {
        counts.add_read(meta.total, meta.flow_id, 1);
    }
}
"""


WIDE_DIV = """
struct metadata {
    bit<32> flow_id;
    bit<64> wide;
    bit<64> third;
}
control Ingress(inout metadata meta) {
    apply {
        meta.wide = meta.flow_id - 1;
        meta.third = meta.wide / 3;
    }
}
"""


class TestScalarIslands:
    def test_64bit_registers_vectorise_and_stay_exact(self):
        compiled, _ = build(REG64)
        pipe = Pipeline(compiled, engine="vector")
        assert pipe.vplan is not None and pipe.vplan.ok
        assert pipe.vplan.island_stages == []
        out = both(REG64, packets_for([5] * 10 + [6]))
        assert_exact(out)

    def test_wide_division_islands_but_stays_exact(self):
        # Dividing a 64-bit value is one of the constructs the lowerer
        # still refuses; the stage before it stays vector.
        compiled, _ = build(WIDE_DIV)
        vplan = Pipeline(compiled, engine="vector").vplan
        assert vplan.ok and len(vplan.island_stages) == 1
        assert "island" in vplan.describe()
        kernels = [kernel for _splan, kernel in vplan.stage_exec]
        assert any(kernels) and not all(kernels)
        assert_exact(both(WIDE_DIV, packets_for([0, 1, 7])))


class TestRuntimeBail:
    def test_oversized_action_data_bails_to_scalar(self):
        # Action data outside the vector engine's static range flags the
        # entry; lanes selecting it re-run the stage as a scalar island.
        big = (1 << 31) + 5

        def prepare(pipe):
            pipe.table_add("route", match=(1,), action="set_port",
                           action_data=(big,))
            pipe.table_add("route", match=(2,), action="set_port",
                           action_data=(7,))

        out = both(TABLED, [Packet(fields={"dst": d})
                            for d in (1, 2, 3, 1)], prepare=prepare)
        assert_exact(out)


CONFLICT = """
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
"""


class TestConflictError:
    def test_batch_conflict_raises_scalar_error_message(self):
        target = small_target(stages=4, memory_kb=8)
        try:
            compiled = compile_source(CONFLICT, target,
                                      source_name="conflict")
        except Exception:
            pytest.skip("compiler schedules the writes apart")
        pipe = Pipeline(compiled, engine="vector")
        if pipe.vplan is None or not pipe.vplan.ok:
            pytest.skip("conflict source not vector-eligible")
        with pytest.raises(SimulationError,
                           match="write different values"):
            pipe.process_many([Packet(fields={"a": 1})] * 3)


class TestSharded:
    # Both paths must satisfy the same merge contract: "pool" is the
    # persistent worker pool, "inline" the sequential reference.
    @pytest.mark.parametrize("mode", ["pool", "inline"])
    def test_additive_merge_bit_exact(self, mode):
        compiled, _ = build(COUNTER)
        flows = [i % 7 for i in range(400)]
        seq = Pipeline(compiled, engine="vector")
        seq.process_many(packets_for(flows), collect=False)
        for workers in (2, 3):
            shard = Pipeline(compiled, engine="vector")
            n = run_shards(shard, packets_for(flows), mode, collect=False,
                           workers=workers)
            assert n == 400
            assert shard.packets_processed == 400
            assert register_state(seq) == register_state(shard)
            report = shard.last_shard_report
            assert report["mode"] == mode
            assert report["workers"] == workers
            assert sum(report["counts"]) == 400
            assert all(b >= 0 for b in report["busy_seconds"])
            shard.close()

    @pytest.mark.parametrize("mode", ["pool", "inline"])
    def test_lane_order_preserved(self, mode):
        compiled, _ = build(COUNTER)
        with Pipeline(compiled, engine="vector") as pipe:
            flows = [(i * 31) % 97 for i in range(120)]
            results = run_shards(pipe, packets_for(flows), mode)
            assert [r.get("meta.flow_id") for r in results] == flows

    def test_same_key_routes_to_one_worker(self):
        pkts = packets_for([3] * 10 + [8] * 10)
        assign = shard_assignments(pkts, workers=4)
        assert len(set(assign[:10].tolist())) == 1
        assert len(set(assign[10:].tolist())) == 1

    def test_callback_incompatible_with_workers(self):
        compiled, _ = build(COUNTER)
        pipe = Pipeline(compiled, engine="vector")
        with pytest.raises(ValueError, match="workers"):
            pipe.process_many(packets_for([1]), workers=2,
                              callback=lambda r: None)

    def test_classification(self):
        compiled, _ = build(COUNTER)
        pipe = Pipeline(compiled, engine="vector")
        classes = classify_registers(pipe)
        assert set(classes.values()) == {"additive"}

    def test_inline_fallback_matches_fork(self, monkeypatch):
        import multiprocessing as mp

        compiled, _ = build(COUNTER)
        flows = [i % 5 for i in range(100)]
        forked = Pipeline(compiled, engine="vector")
        forked.process_many(packets_for(flows), collect=False, workers=2)
        assert forked.last_shard_report["mode"] == "pool"
        forked.close()

        def no_fork(method=None):
            raise ValueError("fork unavailable")

        monkeypatch.setattr(mp, "get_context", no_fork)
        inline = Pipeline(compiled, engine="vector")
        inline.process_many(packets_for(flows), collect=False, workers=2)
        assert inline.last_shard_report["mode"] == "inline"
        assert register_state(forked) == register_state(inline)

    def test_works_on_compiled_engine_too(self):
        # Sharding is an engine-independent front end: without a vector
        # plan the same partitions run inline.
        compiled, _ = build(COUNTER)
        pipe = Pipeline(compiled, engine="compiled")
        n = pipe.process_many(packets_for([1, 2, 3, 4]), collect=False,
                              workers=2)
        assert n == 4
        assert pipe.last_shard_report["mode"] == "inline"
