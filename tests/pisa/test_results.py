"""``BatchResults``: one return type for ``process_many(collect=True)``.

The vector engine keeps columns and builds rows late; the scalar engines
and the inline shard join hand over finished rows. Either way the
rows, ``column()`` and ``hit_column()`` must tell the same story — on
lanes that never acquired a field, on lanes a table never ran for, and
on 64-bit fields held as bit patterns.
"""

import pickle

import numpy as np
import pytest

from repro.pisa import BatchResults, Packet, Pipeline, PipelineResult

from .test_pipeline import build
from .test_vector import run_shards

#: ``egress`` exists only on table-hit lanes, ``route`` only runs for
#: ``dst < 100``, and ``wide`` wraps past 2**63.
SOURCE = """
struct metadata {
    bit<32> dst;
    bit<9> egress;
    bit<64> wide;
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
    apply {
        meta.wide = meta.dst - 3;
        if (meta.dst < 100) { route.apply(); }
    }
}
"""

DSTS = [42, 1, 200, 42, 0, 2, 150, 9, 42, 3]


def run(engine, dsts=DSTS, process=Pipeline.process_many, **kwargs):
    compiled, _ = build(SOURCE)
    pipe = Pipeline(compiled, engine=engine)
    pipe.table_add("route", match=(42,), action="set_port",
                   action_data=(7,))
    pipe.vector_chunk = 4       # several column chunks per call
    with pipe:
        return process(pipe, [Packet(fields={"dst": d}) for d in dsts],
                       **kwargs)


def rows_of(results):
    return [(r.phv, r.table_hits) for r in results]


@pytest.fixture(scope="module")
def reference():
    """The compiled engine builds each row as the packet finishes."""
    return run("compiled")


class TestRows:
    def test_vector_rows_equal_scalar_rows(self, reference):
        results = run("vector")
        assert isinstance(results, BatchResults)
        assert isinstance(reference, BatchResults)
        assert len(results) == len(DSTS)
        assert rows_of(results) == rows_of(reference)
        # the interesting lanes are really there
        assert "meta.egress" not in results[1].phv
        assert "route" not in results[2].table_hits
        assert results[4].get("meta.wide") == (1 << 64) - 3

    def test_sequence_protocol(self, reference):
        results = run("vector")
        assert isinstance(results[0], PipelineResult)
        assert results[-1].phv == reference[-1].phv
        assert rows_of(results[2:5]) == rows_of(reference[2:5])
        assert rows_of(reversed(results)) == rows_of(reversed(reference))
        with pytest.raises(IndexError):
            results[len(DSTS)]
        with pytest.raises(TypeError):
            results[0] = None       # read-only

    def test_empty_batch(self):
        for engine in ("vector", "compiled"):
            results = run(engine, dsts=[])
            assert len(results) == 0 and list(results) == []
            assert results.column("meta.dst").shape == (0,)

    def test_columnar_results_pickle_without_the_plan(self):
        # The fork shard mode sends a worker's results through a pipe.
        results = run("vector")
        clone = pickle.loads(pickle.dumps(results))
        assert rows_of(clone) == rows_of(results)
        assert b"VectorPlan" not in pickle.dumps(results)


class TestColumns:
    @pytest.mark.parametrize("engine", ["vector", "compiled", "interp"])
    def test_columns_agree_with_rows(self, engine):
        results = run(engine)
        for key in ("meta.dst", "meta.egress", "meta.wide", "meta.nope"):
            column = results.column(key)
            assert column.dtype == np.uint64
            assert column.tolist() == [r.get(key) for r in results]
        for table in ("route", "nope"):
            column = results.hit_column(table)
            assert column.dtype == np.bool_
            assert column.tolist() == [r.hit(table) for r in results]

    def test_columns_do_not_build_rows(self):
        results = run("vector")
        results.column("meta.wide"), results.hit_column("route")
        assert results._rows is None

    def test_columns_are_read_only(self):
        column = run("vector", dsts=[1, 2]).column("meta.dst")
        with pytest.raises(ValueError):
            column[0] = 9


class TestShardedCollect:
    @pytest.mark.parametrize("mode", ["pool", "inline"])
    def test_workers_return_lane_ordered_rows(self, mode, reference):
        dsts = DSTS * 6
        results = run("vector", dsts=dsts, process=run_shards, mode=mode,
                      shard_field="dst")
        assert isinstance(results, BatchResults)
        assert rows_of(results) == rows_of(reference) * 6
        assert results.column("meta.dst").tolist() == dsts
        assert results.hit_column("route").tolist() == [
            d == 42 for d in dsts]
