"""Persistent worker-pool tests: lifecycle, plan-cache invalidation,
loud degradation, and merge-exactness properties.

The pool's (:mod:`repro.pisa.pool`) workers live as long as the
:class:`~repro.pisa.pipeline.Pipeline`. The contracts under test here
are the ones a long-lived pool can silently break: stale cached plans
after a table mutation, register state drifting across batch reuse,
a dead worker wedging every later batch, and orphaned children after
``close()``.
"""

import multiprocessing
import os
import signal
from multiprocessing import shared_memory

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.pisa import Packet, Pipeline
from repro.pisa.interp import SimulationError
from repro.pisa.sharded import classify_registers, run_inline

from .test_pipeline import COUNTER, TABLED, build
from .test_vector import packets_for, register_state

pytestmark = pytest.mark.skipif(
    not hasattr(multiprocessing, "get_context"),
    reason="multiprocessing unavailable",
)


def _fork_available() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="fork start method unavailable")


# All three merge classes in one program: counts merges additively,
# peaks by max, floors by min (floors is pre-seeded high in tests so
# the min merge has something to beat — cells start at 0).
MIXED = """
struct metadata {
    bit<32> flow_id;
    bit<32> val;
    bit<32> total;
}
register<bit<32>>[16] counts;
register<bit<32>>[16] peaks;
register<bit<32>>[16] floors;
action bump() { counts.add_read(meta.total, meta.flow_id, 1); }
action hi() { peaks.max_update(meta.flow_id, meta.val); }
action lo() { floors.min_update(meta.flow_id, meta.val); }
control Ingress(inout metadata meta) {
    apply { bump(); hi(); lo(); }
}
"""

HIGH = (1 << 32) - 1


def mixed_packets(pairs):
    return [Packet(fields={"flow_id": f, "val": v}) for f, v in pairs]


def seed_floors(pipe):
    for name in pipe.registers.names():
        if name.startswith("floors"):
            arr = pipe.registers.get(name)
            arr.load([HIGH] * arr.cells)


@needs_fork
class TestPoolLifecycle:
    def test_reuse_across_batches_exact_vs_inline(self):
        # Three consecutive batches on ONE pool (spawned once) must end
        # bit-identical to the same batches run inline. Any canonical
        # register-sync bug compounds across batches, so each boundary
        # is checked, not just the final state.
        compiled, _ = build(MIXED)
        batches = [
            mixed_packets([(i % 11, (i * 37) % 5000) for i in range(300)]),
            mixed_packets([(i % 5, (i * 13) % 50) for i in range(200)]),
            mixed_packets([(i % 16, i) for i in range(250)]),
        ]

        inline = Pipeline(compiled, engine="vector")
        seed_floors(inline)
        pooled = Pipeline(compiled, engine="vector")
        seed_floors(pooled)
        try:
            for k, batch in enumerate(batches):
                run_inline(inline, list(batch), False, 2)
                pooled.process_many(list(batch), collect=False, workers=2)
                report = pooled.last_shard_report
                assert report["mode"] == "pool", report
                assert report["pool_spawns"] == 1, (k, report)
                assert register_state(inline) == register_state(pooled), \
                    f"state diverged after batch {k}"
        finally:
            pooled.close()

    def test_close_leaves_no_children(self):
        compiled, _ = build(COUNTER)
        with Pipeline(compiled, engine="vector") as pipe:
            pipe.process_many(packets_for([i % 7 for i in range(100)]),
                              collect=False, workers=2)
            assert pipe.last_shard_report["mode"] == "pool"
            assert len(multiprocessing.active_children()) == 2
        assert multiprocessing.active_children() == []
        pipe.close()  # idempotent

    def test_batch_after_close_respawns(self):
        # close() is a lifecycle point, not a poison pill: the next
        # sharded batch simply builds a fresh pool.
        compiled, _ = build(COUNTER)
        pipe = Pipeline(compiled, engine="vector")
        try:
            pipe.process_many(packets_for([1, 2, 3, 4]), collect=False,
                              workers=2)
            pipe.close()
            assert multiprocessing.active_children() == []
            pipe.process_many(packets_for([1, 2, 3, 4]), collect=False,
                              workers=2)
            assert pipe.last_shard_report["mode"] == "pool"
            assert pipe.registers.get(pipe.registers.names()[0]) is not None
        finally:
            pipe.close()

    def test_table_insert_between_batches_relowers_once(self):
        # The journal ships the mutation and each worker rebuilds its
        # cached VectorPlan exactly once — no respawn, no rebuild storm,
        # and crucially not zero (a stale plan would keep missing).
        compiled, _ = build(TABLED)
        pkts = lambda: [Packet(fields={"dst": d})  # noqa: E731
                        for d in (42, 1, 42, 9) * 50]
        pipe = Pipeline(compiled, engine="vector")
        try:
            r1 = pipe.process_many(pkts(), workers=2)
            assert not any(r.hit("route") for r in r1)

            pipe.table_add("route", match=(42,), action="set_port",
                           action_data=(7,))

            r2 = pipe.process_many(pkts(), workers=2)
            report = pipe.last_shard_report
            assert report["mode"] == "pool"
            assert report["pool_spawns"] == 1, report
            assert report["pool_relowers"] == [1, 1], report
            assert [r.hit("route") for r in r2] == [True, False] * 100
            assert all(r.get("meta.egress") == 7 for r in r2 if r.hit("route"))

            # No further mutation: the cached plan is reused as-is.
            pipe.process_many(pkts(), workers=2)
            assert pipe.last_shard_report["pool_relowers"] == [1, 1]
            assert pipe.last_shard_report["pool_spawns"] == 1
        finally:
            pipe.close()

    def test_out_of_band_table_edit_respawns(self):
        # Mutating a table behind the Pipeline API can't be journaled;
        # the pool must notice the version skew and respawn rather than
        # serve results from a stale plan.
        compiled, _ = build(TABLED)
        pipe = Pipeline(compiled, engine="vector")
        try:
            pipe.process_many([Packet(fields={"dst": 42})] * 40, workers=2)
            from repro.pisa.tables import TableEntry
            pipe.tables["route"].add_entry(
                TableEntry(match=(42,), action="set_port", action_data=(7,),
                           priority=0))
            results = pipe.process_many(
                [Packet(fields={"dst": 42})] * 40, workers=2)
            report = pipe.last_shard_report
            assert report["mode"] == "pool"
            assert report["pool_spawns"] == 2, report
            assert all(r.hit("route") for r in results)
        finally:
            pipe.close()

    def test_collect_preserves_lane_order(self):
        # Flow ids < 16 so every flow owns its register cell outright
        # (COUNTER has 16 cells): per-flow running counts are then
        # deterministic regardless of which worker a flow lands on.
        compiled, _ = build(COUNTER)
        flows = [(i * 31) % 13 for i in range(3000)]
        with Pipeline(compiled, engine="vector") as pipe:
            results = pipe.process_many(packets_for(flows), workers=4)
            assert pipe.last_shard_report["mode"] == "pool"
            assert [r.get("meta.flow_id") for r in results] == flows
            # Running counts prove per-flow sequencing survived the
            # scatter/gather round trip, not just the field values.
            seen = {}
            for r in results:
                f = r.get("meta.flow_id")
                seen[f] = seen.get(f, 0) + 1
                assert r.get("meta.total") == seen[f]


class _KillsOnSecondChunk(list):
    """A batch that SIGKILLs a pool worker while the parent slices off
    its second scatter chunk — i.e. after the first chunk was served."""

    def __init__(self, packets, kill):
        super().__init__(packets)
        self.kill = kill

    def __getitem__(self, item):
        if isinstance(item, slice) and item.start:
            self.kill()
        return super().__getitem__(item)


@needs_fork
class TestWorkerDeath:
    # ROADMAP 4e: a dead worker costs the batch that meets it, never
    # the pipeline — registers untouched, next batch on fresh workers.
    FLOWS = [i % 7 for i in range(200)]

    @staticmethod
    def kill_worker(pipe):
        proc = pipe._pool._procs[0]
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=10)
        assert not proc.is_alive()

    def fails_once_then_recovers(self, pipe, compiled, doomed, collect):
        before = register_state(pipe)
        with pytest.raises(SimulationError, match="pooled worker 0 died"):
            pipe.process_many(doomed, collect=collect, workers=2)
        assert register_state(pipe) == before

        pipe.process_many(packets_for(self.FLOWS), collect=False, workers=2)
        report = pipe.last_shard_report
        assert report["mode"] == "pool"
        assert report["pool_spawns"] == 2, report
        # Two batches landed (before the kill, after the respawn).
        ref = Pipeline(compiled, engine="vector")
        ref.process_many(packets_for(self.FLOWS * 2), collect=False)
        assert register_state(ref) == register_state(pipe)

        segments = [shm.name for shm in pipe._pool._shms]
        pipe.close()
        assert multiprocessing.active_children() == []
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_killed_between_batches(self):
        compiled, _ = build(COUNTER)
        pipe = Pipeline(compiled, engine="vector")
        try:
            pipe.process_many(packets_for(self.FLOWS), collect=False,
                              workers=2)
            self.kill_worker(pipe)
            self.fails_once_then_recovers(
                pipe, compiled, packets_for(self.FLOWS), collect=False)
        finally:
            pipe.close()

    @pytest.mark.parametrize("collect", [True, False])
    def test_killed_mid_batch(self, collect):
        compiled, _ = build(COUNTER)
        pipe = Pipeline(compiled, engine="vector")
        try:
            pipe.process_many(packets_for(self.FLOWS), collect=False,
                              workers=2)
            n = 2 * pipe._pool.chunk + 100       # three scatter chunks
            doomed = _KillsOnSecondChunk(
                packets_for([i % 7 for i in range(n)]),
                kill=lambda: self.kill_worker(pipe))
            self.fails_once_then_recovers(pipe, compiled, doomed, collect)
        finally:
            pipe.close()


class TestDegradation:
    def test_no_vector_plan_degrades_loudly(self, monkeypatch):
        # The compiled engine has no VectorPlan, so the pool can't
        # attach; workers > 1 must still work — but say so in the
        # report and on the degradation counter.
        from repro.pisa import sharded

        events = []
        monkeypatch.setattr(
            sharded, "_note_degraded",
            lambda *a: events.append(a))
        compiled, _ = build(COUNTER)
        pipe = Pipeline(compiled, engine="compiled")
        n = pipe.process_many(packets_for([1, 2, 3, 4]), collect=False,
                              workers=2)
        assert n == 4
        report = pipe.last_shard_report
        assert report["mode"] == "inline"
        assert events == [("no_vector_plan",)]

    def test_fork_unavailable_degrades_to_inline(self, monkeypatch):
        import multiprocessing as mp

        def no_fork(method=None):
            raise ValueError("fork unavailable")

        monkeypatch.setattr(mp, "get_context", no_fork)
        compiled, _ = build(COUNTER)
        flows = [i % 5 for i in range(100)]
        ref = Pipeline(compiled, engine="vector")
        ref.process_many(packets_for(flows), collect=False)

        pipe = Pipeline(compiled, engine="vector")
        pipe.process_many(packets_for(flows), collect=False, workers=2)
        report = pipe.last_shard_report
        assert report["mode"] == "inline"
        assert register_state(ref) == register_state(pipe)

    def test_degradation_metric_incremented(self):
        from repro.obs import metrics as obs_metrics

        compiled, _ = build(COUNTER)
        pipe = Pipeline(compiled, engine="compiled")  # no vplan -> degrade
        pipe.process_many(packets_for([1, 2]), collect=False, workers=2)
        counter = obs_metrics.get("p4all_shard_degraded_total")
        assert counter is not None
        # Labelled with the mode actually used after the fallback.
        assert counter.value(shard_mode="inline",
                             reason="no_vector_plan") >= 1


@needs_fork
class TestMergeProperties:
    def test_register_classes_reported(self):
        compiled, _ = build(MIXED)
        pipe = Pipeline(compiled, engine="vector")
        classes = classify_registers(pipe)
        kinds = {name.rsplit("[", 1)[0]: kind for name, kind in classes.items()}
        assert kinds["counts"] == "additive"
        assert kinds["peaks"] == "max"
        assert kinds["floors"] == "min"

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        pairs=st.lists(
            st.tuples(st.integers(min_value=0, max_value=(1 << 32) - 1),
                      st.integers(min_value=0, max_value=(1 << 32) - 1)),
            min_size=1, max_size=120),
        workers=st.sampled_from([1, 2, 4]),
        split=st.integers(min_value=0, max_value=120),
    )
    def test_pool_bit_identical_to_inline(self, pairs, workers, split):
        # Property: for a random additive/max/min register mix, pooled
        # merge across any worker count equals inline execution — and
        # stays equal when the stream is cut into two batches at an
        # arbitrary boundary (state must carry across the pool's
        # canonical-sync round trip).
        compiled, _ = build(MIXED)
        split = min(split, len(pairs))
        batches = [b for b in (pairs[:split], pairs[split:]) if b]

        inline = Pipeline(compiled, engine="vector")
        seed_floors(inline)
        for batch in batches:
            run_inline(inline, mixed_packets(batch), False, workers)

        pooled = Pipeline(compiled, engine="vector")
        seed_floors(pooled)
        try:
            for batch in batches:
                pooled.process_many(mixed_packets(batch), collect=False,
                                    workers=workers)
            if workers > 1:
                assert pooled.last_shard_report["mode"] == "pool"
            assert register_state(inline) == register_state(pooled)
        finally:
            pooled.close()
