"""Persistent shared-memory worker pool for sharded ``process_many``.

Forking workers per batch pays three taxes every batch: copy-on-write
page faults in every fresh child, re-derivation of execution state, and
pickling whole result columns back over a pipe. The workers here are
forked **once per pipeline**:

* **Lifecycle.** :func:`ensure_pool` lazily attaches a
  :class:`WorkerPool` to the pipeline on the first pooled batch and
  reuses it until :meth:`Pipeline.close` (or interpreter exit via a
  ``weakref.finalize``). Each worker inherits the parent's lowered
  :class:`~repro.pisa.vector.VectorPlan` by fork and keeps it cached,
  keyed on the pipeline's table versions — a control-plane mutation
  between batches ships as a journal entry and re-lowers the worker's
  plan exactly once; a mutation the journal cannot explain (someone
  touched a table behind the Pipeline API) respawns the workers. A
  worker that dies fails the batch it was serving (or the next one to
  reach it) with a :class:`SimulationError`, parent registers
  untouched; the batch after that respawns the workers.
* **Shared memory, not pipes.** All buffers are created *before* the
  fork so children inherit the mappings directly — no attach/unlink
  races, no per-batch segment churn. PHV columns are scattered once by
  the parent into a double-buffered input region (each worker reads its
  contiguous slice zero-copy); canonical register state is published in
  a register region each batch and re-read by workers in place (so
  control-plane register writes between batches propagate for free);
  per-worker register deltas and, under ``collect=True``, result
  columns come back through dedicated regions. Nothing crosses a pipe
  but small control tuples and per-register merge metadata.
* **Pipelining.** With results discarded (``collect=False``, the
  throughput path) the parent shard-hashes and scatters chunk *k+1*
  into the idle half of the double buffer while workers execute chunk
  *k*. Workers drain their pipe FIFO, so chunk order — and therefore
  same-worker register sequencing — is preserved.
* **Merge discipline.** The join is bit-identical to the inline
  path (:func:`~repro.pisa.sharded.run_inline`): the same static
  :func:`~repro.pisa.sharded.classify_registers` classes drive the same
  additive / extremum / overwrite merges over per-worker deltas
  computed against the canonical snapshot.

Workers require the ``fork`` start method (plan closures cannot be
pickled for ``spawn``) and a usable :class:`VectorPlan`; when either is
missing the sharded front end degrades — loudly, see
:mod:`repro.pisa.sharded` — to the inline path.
"""

from __future__ import annotations

import os
import time
import weakref
from typing import Optional

import numpy as np

from ..fabric.shard import key_hash
from ..obs import merge_worker_obs, metrics, obs_control, trace
from ..obs.aggregate import WorkerObsCapture
from .interp import SimulationError
from .results import BatchResults
from .sharded import classify_registers, shard_assignments, _merge_deltas
from .tables import TableEntry
from .vector import PhvBatch

__all__ = ["WorkerPool", "PoolUnavailable", "ensure_pool", "default_pool_chunk"]


class PoolUnavailable(Exception):
    """The pool cannot start here (no fork, no vector plan, dead spawn).

    Raised only at startup/attach time; the sharded front end catches it
    and degrades to the inline path with a telemetry event.
    Errors *during* a pooled batch raise :class:`SimulationError` like
    every other engine failure — degradation must never hide them.
    """


def default_pool_chunk(workers: int = 1) -> int:
    """Packets per scatter chunk: scales with the worker count so each
    worker's slice lands near the vector kernels' per-invocation sweet
    spot (~5k lanes — small enough to stay cache-resident, large enough
    to amortize per-kernel numpy dispatch)."""
    return 5120 * max(1, workers)


def _shm_array(shm, offset: int, count: int, dtype) -> np.ndarray:
    return np.ndarray((count,), dtype=dtype, buffer=shm.buf, offset=offset)


class _Regions:
    """Byte layout of every pre-fork shared-memory segment.

    Computed once in the parent before forking, inherited by workers.
    ``chunk`` bounds every per-chunk dimension, so no segment is ever
    created or grown after the fork — children never attach by name.
    """

    def __init__(self, pipeline, workers: int, chunk: int):
        self.chunk = chunk
        self.reg_names = list(pipeline.registers.names())
        self.reg_offsets: dict[str, tuple[int, int]] = {}
        off = 0
        for name in self.reg_names:
            cells = pipeline.registers.get(name).cells
            self.reg_offsets[name] = (off, cells)
            off += cells * 8
        self.reg_bytes = max(off, 8)
        # idx(int64) + delta(uint64) + new(uint64) for every cell.
        self.delta_worker_bytes = max(
            sum(cells * 24 for _o, cells in self.reg_offsets.values()), 8)
        self.ncols = max(len(pipeline.vplan.masks), 1)
        self.ntables = len(pipeline.tables)
        # Per chunk: ncols int64 value columns + ncols byte presence
        # columns, packed values-first at the actual chunk length.
        self.in_bytes = chunk * self.ncols * 9
        # Per worker under collect: every PHV column (value + presence)
        # plus hit/ran booleans per table, at worst one whole chunk.
        self.out_worker_bytes = chunk * (self.ncols * 9 + self.ntables * 2)


class WorkerPool:
    """Long-lived forked workers executing vector batches over shm."""

    def __init__(self, pipeline, workers: int):
        if workers < 2:
            raise PoolUnavailable("pool needs at least 2 workers")
        if pipeline.vplan is None or not pipeline.vplan.ok:
            raise PoolUnavailable("pipeline has no usable vector plan")
        import multiprocessing as mp

        try:
            self._ctx = mp.get_context("fork")
        except (ValueError, AttributeError) as exc:
            raise PoolUnavailable(f"fork start method unavailable: {exc}")
        from multiprocessing import shared_memory

        self.workers = workers
        self.chunk = default_pool_chunk(workers)
        self.alive = False
        self.spawns = 0
        self._owner_pid = os.getpid()
        self._procs: list = []
        self._conns: list = []
        self._journal: list[tuple] = []
        self._synced_versions: dict[str, int] = {}
        self._journal_versions: dict[str, int] = {}
        self._classes = classify_registers(pipeline)
        self.layout = _Regions(pipeline, workers, self.chunk)
        lay = self.layout
        self._shms = []

        def seg(nbytes):
            shm = shared_memory.SharedMemory(create=True, size=nbytes)
            self._shms.append(shm)
            return shm

        self._reg_shm = seg(lay.reg_bytes)
        self._delta_shm = seg(lay.delta_worker_bytes * workers)
        self._in_shms = (seg(lay.in_bytes), seg(lay.in_bytes))
        self._out_shm = seg(lay.out_worker_bytes * workers)
        self._reg_views = {
            name: _shm_array(self._reg_shm, off, cells, np.uint64)
            for name, (off, cells) in lay.reg_offsets.items()
        }
        self._spawn(pipeline)

    # -- spawn / teardown ------------------------------------------------------
    def _spawn(self, pipeline) -> None:
        self._stop_workers()
        pipes = [self._ctx.Pipe(duplex=True) for _ in range(self.workers)]
        self._conns = [parent for parent, _child in pipes]
        self._procs = []
        for wid, (_parent, child) in enumerate(pipes):
            proc = self._ctx.Process(
                target=_worker_main,
                args=(pipeline, self, wid, pipes),
                daemon=True,
                name=f"p4all-pool-{wid}",
            )
            proc.start()
            # Drop the fork-time argument references: the parent-side
            # Process object must not pin the pipeline (its lifetime is
            # tied to the pipeline through a weakref finalizer, which a
            # strong cycle through us would defeat).
            proc._target = proc._args = proc._kwargs = None
            self._procs.append(proc)
        for _parent, child in pipes:
            child.close()
        # Health check: a worker that died in its preamble (fork bomb
        # guard, import failure) must fail the attach, not the batch.
        try:
            for wid, conn in enumerate(self._conns):
                try:
                    conn.send(("ping",))
                    if not conn.poll(10):
                        raise PoolUnavailable(
                            f"worker {wid} did not come up")
                    msg = conn.recv()
                    if msg[0] != "pong":
                        raise PoolUnavailable(
                            f"worker {wid} bad handshake: {msg!r}")
                except (OSError, EOFError) as exc:
                    raise PoolUnavailable(
                        f"worker {wid} failed to start: {exc}")
        except PoolUnavailable:
            self._stop_workers()
            raise
        self._synced_versions = {
            name: t.version for name, t in pipeline.tables.items()
        }
        self._journal.clear()
        self.alive = True
        self.spawns += 1

    def _stop_workers(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("close",))
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=2)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._conns = []
        self._procs = []
        self.alive = False

    def close(self) -> None:
        """Stop workers and release shared memory; idempotent.

        A no-op in forked children (which inherit the pool object):
        only the owning process may reap the workers or unlink the
        segments.
        """
        if os.getpid() != self._owner_pid:
            return
        self._stop_workers()
        for shm in self._shms:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass
        self._shms = []

    # -- control-plane sync ----------------------------------------------------
    def note_table_op(self, op: tuple, pipeline) -> None:
        """Record a Pipeline-API table mutation for worker replay."""
        self._journal.append(op)
        self._journal_versions = {
            name: t.version for name, t in pipeline.tables.items()
        }

    def _sync_ops(self, pipeline) -> list[tuple]:
        """Journal tail to ship this batch; respawns on out-of-band edits."""
        current = {name: t.version for name, t in pipeline.tables.items()}
        if current == self._synced_versions:
            return []
        if self._journal and self._journal_versions == current:
            ops = list(self._journal)
            self._journal.clear()
            self._synced_versions = current
            return ops
        # A table changed without going through the Pipeline API (or on
        # top of journaled ops): the journal cannot reproduce it, so
        # refork — children re-inherit the tables wholesale.
        self._spawn(pipeline)
        return []

    # -- batch execution -------------------------------------------------------
    def run(self, pipeline, packets, collect: bool,
            shard_field: Optional[str] = None):
        """Run one ``process_many`` batch through the pool.

        Returns ``(result, report)`` where ``result`` is the batch's
        :class:`BatchResults` (lane order preserved) or the packet
        count, and ``report`` the per-worker stats dict for
        ``pipeline.last_shard_report``.
        """
        if not self._shms:
            raise SimulationError("worker pool is closed")
        ops = self._sync_ops(pipeline)
        n = len(packets)
        lay = self.layout
        vplan = pipeline.vplan
        registers = pipeline.registers
        for name, view in self._reg_views.items():
            view[:] = registers.get(name)._data

        # Gathered chunks stay columnar in the parent: rows are built
        # from them on demand, never shipped from (or with) a worker.
        results = BatchResults(wide=vplan.wide) if collect else None
        acked = [0] * self.workers
        failures: list[str] = []

        def drain_one(conn, wid):
            """One reply off a worker's pipe; returns the message."""
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                raise self._worker_died(wid) from None
            if msg[0] == "err":
                failures.append(str(msg[1]))
            return msg

        # Shard keys come straight from the loaded PHV column (post-mask
        # values; absent lanes hold 0, matching shard_assignments'
        # missing-field default) — the masked value is a function of the
        # raw key, so same-key-same-worker still holds, without a second
        # per-packet Python pass over the batch.
        shard_key = self._resolve_shard_key(pipeline, packets, shard_field)
        seq = 0
        for base in range(0, n, self.chunk):
            chunk_pkts = packets[base:base + self.chunk]
            cn = len(chunk_pkts)
            batch = vplan._load(chunk_pkts)
            if shard_key is not None and shard_key in batch.cols:
                keys = batch.cols[shard_key].view(np.uint64)
                assign = (key_hash(keys) % np.uint64(self.workers)
                          ).astype(np.int64)
            else:
                assign = shard_assignments(chunk_pkts, self.workers,
                                           shard_field)
            order = np.argsort(assign, kind="stable")
            counts = np.bincount(assign, minlength=self.workers)
            starts = np.zeros(self.workers + 1, dtype=np.int64)
            np.cumsum(counts, out=starts[1:])
            buf_idx = seq % 2
            if not collect and seq >= 2:
                # Double buffer: reclaim this half only after every
                # worker acked the chunk previously scattered into it.
                need = seq - 1
                for wid, conn in enumerate(self._conns):
                    while acked[wid] < need:
                        drain_one(conn, wid)
                        acked[wid] += 1
            shm = self._in_shms[buf_idx]
            keys = list(batch.cols)
            uniform = all(bool(p.all()) for p in batch.present.values())
            pres_base = len(keys) * cn * 8
            for i, key in enumerate(keys):
                np.take(batch.cols[key], order,
                        out=_shm_array(shm, i * cn * 8, cn, np.int64))
                if not uniform:
                    np.take(batch.present[key], order,
                            out=_shm_array(shm, pres_base + i * cn, cn,
                                           np.bool_))
            final = base + self.chunk >= n
            msg = ("chunk", buf_idx, cn, keys, uniform, starts.tolist(),
                   final)
            if seq == 0:
                # "begin" rides immediately ahead of the first chunk in
                # the pipe so each worker wakes once per batch, not once
                # for the preamble and again for its first real work.
                # The obs control tuple keeps worker tracers in lockstep
                # with the parent's enablement and clock epoch.
                begin = ("begin", collect, ops, obs_control())
                for wid in range(self.workers):
                    self._send(wid, begin)
            for wid in range(self.workers):
                self._send(wid, msg)
            seq += 1
            if collect:
                self._gather_chunk(results, order, starts, acked, drain_one)
        counts_out = [0] * self.workers
        busys = [0.0] * self.workers
        relowers = [0] * self.workers
        worker_deltas: list[dict] = [{} for _ in range(self.workers)]
        for wid, conn in enumerate(self._conns):
            while True:
                msg = drain_one(conn, wid)
                if msg[0] in ("chunk_done", "err"):
                    acked[wid] += 1
                    continue
                break
            _tag, count, busy, delta_meta, nrelowers, obs_payload = msg
            counts_out[wid] = count
            busys[wid] = busy
            relowers[wid] = nrelowers
            # Fold the worker's spans and metric deltas into the global
            # tracer/registry, under the live pisa.batch span, on a
            # dedicated Chrome-trace track per worker.
            merge_worker_obs(obs_payload, worker=wid,
                             track=1_000_000 + wid,
                             track_name=f"pool-worker-{wid}")
            off = wid * lay.delta_worker_bytes
            for name, k in delta_meta:
                idx = _shm_array(self._delta_shm, off, k, np.int64)
                off += k * 8
                delta = _shm_array(self._delta_shm, off, k, np.uint64)
                off += k * 8
                new = _shm_array(self._delta_shm, off, k, np.uint64)
                off += k * 8
                worker_deltas[wid][name] = (idx, delta, new)
        if failures:
            raise SimulationError(
                f"pooled workers failed: {'; '.join(sorted(set(failures)))}"
            )
        _merge_deltas(pipeline, self._classes, worker_deltas)
        pipeline.packets_processed += sum(counts_out)
        report = {
            "workers": self.workers,
            "counts": counts_out,
            "busy_seconds": busys,
            "mode": "pool",
            "register_classes": self._classes,
            "pool_spawns": self.spawns,
            "pool_relowers": relowers,
            "pool_chunks": seq,
        }
        return (results if collect else n), report

    def _worker_died(self, wid: int) -> SimulationError:
        """Mark the pool dead (the next batch respawns it) and name the
        worker. Parent registers only change at the end-of-batch merge,
        so the failed batch leaves them as they were."""
        self.alive = False
        return SimulationError(f"pooled worker {wid} died")

    def _send(self, wid: int, msg: tuple) -> None:
        try:
            self._conns[wid].send(msg)
        except OSError:
            raise self._worker_died(wid) from None

    @staticmethod
    def _resolve_shard_key(pipeline, packets, shard_field):
        """PHV key of the shard field, or None to fall back to the
        per-packet hash pass."""
        if shard_field is None:
            first = packets[0].fields
            shard_field = ("flow_id" if "flow_id" in first
                           else next(iter(first)))
        try:
            return pipeline._packet_key(shard_field)
        except SimulationError:
            return None

    def _gather_chunk(self, results, order, starts, acked,
                      drain_one) -> None:
        """Collect one chunk's result columns from every worker's out
        region, back in original lane order, onto ``results``."""
        lay = self.layout
        cn = len(order)
        cols: dict[str, np.ndarray] = {}
        present: dict[str, np.ndarray] = {}
        hits: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for wid, conn in enumerate(self._conns):
            msg = drain_one(conn, wid)
            acked[wid] += 1
            if msg[0] != "chunk_done":
                continue
            out_meta = msg[2]
            if out_meta is None:
                continue
            keys, hit_names, n_w = out_meta
            if n_w == 0:
                continue
            lanes = order[starts[wid]:starts[wid + 1]]
            off = wid * lay.out_worker_bytes
            for key in keys:
                vals = _shm_array(self._out_shm, off, n_w, np.int64)
                off += n_w * 8
                pres = _shm_array(self._out_shm, off, n_w, np.bool_)
                off += n_w
                col = cols.get(key)
                if col is None:
                    col = cols[key] = np.zeros(cn, dtype=np.int64)
                    present[key] = np.zeros(cn, dtype=bool)
                col[lanes] = vals
                present[key][lanes] = pres
            for name in hit_names:
                hit = _shm_array(self._out_shm, off, n_w, np.bool_)
                off += n_w
                ran = _shm_array(self._out_shm, off, n_w, np.bool_)
                off += n_w
                pair = hits.get(name)
                if pair is None:
                    pair = hits[name] = (np.zeros(cn, dtype=bool),
                                         np.zeros(cn, dtype=bool))
                pair[0][lanes] = hit
                pair[1][lanes] = ran
        results.add_chunk(cols, present, cn, hits)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _worker_main(pipeline, pool: WorkerPool, wid: int, pipes) -> None:
    """Forked worker loop: inherit everything, serve until closed."""
    conn = pipes[wid][1]
    for i, (parent, child) in enumerate(pipes):
        parent.close()
        if i != wid:
            child.close()
    # The inherited parent-side pool/quiesce state is meaningless here.
    pipeline._pool = None
    pipeline._quiesce_pending = []
    try:
        _Worker(pipeline, pool, wid, conn).loop()
    finally:
        conn.close()
        # Skip inherited atexit/finalizers (they belong to the parent).
        os._exit(0)


class _Worker:
    """Per-process execution state inside one pool worker."""

    def __init__(self, pipeline, pool: WorkerPool, wid: int, conn):
        self.pipeline = pipeline
        self.vplan = pipeline.vplan
        self.lay = pool.layout
        self.wid = wid
        self.conn = conn
        self.reg_views = pool._reg_views
        self.delta_shm = pool._delta_shm
        self.in_shms = pool._in_shms
        self.out_shm = pool._out_shm
        self.collect = False
        self.count = 0
        self.busy = 0.0
        self.failed: Optional[str] = None
        self.relowers = 0
        self.capture = WorkerObsCapture()
        self._batch_span = None

    def loop(self) -> None:
        while True:
            try:
                msg = self.conn.recv()
            except (EOFError, OSError):
                return
            tag = msg[0]
            if tag == "ping":
                self.conn.send(("pong", self.wid))
            elif tag == "begin":
                self._begin(collect=msg[1], ops=msg[2],
                            ctl=msg[3] if len(msg) > 3 else None)
            elif tag == "chunk":
                self._chunk(*msg[1:])
            elif tag == "close":
                return

    def _begin(self, collect: bool, ops: list[tuple], ctl=None) -> None:
        registers = self.pipeline.registers
        for name, view in self.reg_views.items():
            registers.get(name)._data[:] = view
        self.collect = collect
        self.count = 0
        self.busy = 0.0
        self.failed = None
        self.capture.begin(ctl)
        # Enter a batch-spanning root manually (the bracket is two pipe
        # messages apart); _end() closes and ships it.
        span = trace.span("pisa.worker.batch", worker=self.wid,
                          shard_mode="pool")
        self._batch_span = span.__enter__() if span else None
        if ops:
            self._apply_ops(ops)

    def _apply_ops(self, ops: list[tuple]) -> None:
        """Replay journaled table mutations, then re-lower the plan once."""
        from .vector import VectorPlan

        tables = self.pipeline.tables
        for op in ops:
            kind, name = op[0], op[1]
            table = tables[name]
            if kind == "add":
                table.add_entry(TableEntry(match=op[2], action=op[3],
                                           action_data=op[4], priority=op[5]))
            elif kind == "remove":
                table.remove_entry(op[2])
        self.vplan = VectorPlan(self.pipeline)
        self.relowers += 1

    def _chunk(self, buf_idx: int, cn: int, keys: list[str], uniform: bool,
               starts: list[int], final: bool) -> None:
        out_meta = None
        try:
            if self.failed is None:
                out_meta = self._run_chunk(buf_idx, cn, keys, uniform, starts)
        except BaseException as exc:
            self.failed = repr(exc)
        if self.failed is not None:
            self.conn.send(("err", self.failed))
        else:
            self.conn.send(("chunk_done", self.wid, out_meta))
        if final:
            # The batch's last chunk doubles as the end-of-batch marker:
            # pack register deltas and report without another round trip.
            self._end()

    def _run_chunk(self, buf_idx, cn, keys, uniform, starts):
        s, e = starts[self.wid], starts[self.wid + 1]
        n_w = e - s
        if n_w == 0:
            return ([], [], 0) if self.collect else None
        shm = self.in_shms[buf_idx]
        pres_base = len(keys) * cn * 8
        cols: dict[str, np.ndarray] = {}
        present: dict[str, np.ndarray] = {}
        for i, key in enumerate(keys):
            cols[key] = _shm_array(shm, i * cn * 8, cn, np.int64)[s:e]
            if uniform:
                present[key] = np.ones(n_w, dtype=bool)
            else:
                present[key] = _shm_array(shm, pres_base + i * cn, cn,
                                          np.bool_)[s:e]
        batch = PhvBatch(cols, present, n_w)
        hits: dict = {}
        t0 = time.process_time()
        self.vplan.run_stages(batch, hits)
        self.busy += time.process_time() - t0
        self.count += n_w
        if not self.collect:
            return None
        off = self.wid * self.lay.out_worker_bytes
        out_keys = list(batch.cols)
        for key in out_keys:
            _shm_array(self.out_shm, off, n_w, np.int64)[:] = batch.cols[key]
            off += n_w * 8
            _shm_array(self.out_shm, off, n_w, np.bool_)[:] = \
                batch.present[key]
            off += n_w
        hit_names = list(hits)
        for name in hit_names:
            h, r = hits[name]
            _shm_array(self.out_shm, off, n_w, np.bool_)[:] = h
            off += n_w
            _shm_array(self.out_shm, off, n_w, np.bool_)[:] = r
            off += n_w
        return (out_keys, hit_names, n_w)

    def _end(self) -> None:
        registers = self.pipeline.registers
        meta: list[tuple[str, int]] = []
        off = self.wid * self.lay.delta_worker_bytes
        for name, view in self.reg_views.items():
            local = registers.get(name)._data
            changed = np.nonzero(local != view)[0]
            k = changed.size
            if not k:
                continue
            _shm_array(self.delta_shm, off, k, np.int64)[:] = changed
            off += k * 8
            _shm_array(self.delta_shm, off, k, np.uint64)[:] = \
                local[changed] - view[changed]
            off += k * 8
            _shm_array(self.delta_shm, off, k, np.uint64)[:] = local[changed]
            off += k * 8
            meta.append((name, k))
        # Workers count only their own share (never p4all_packets_total
        # — the parent's batch wrapper owns that, so merged totals match
        # inline mode exactly).
        metrics.counter(
            "p4all_worker_packets_total",
            help="Packets executed inside worker processes.",
            labels=("worker", "shard_mode"),
        ).inc(self.count, worker=self.wid, shard_mode="pool")
        if self._batch_span is not None:
            self._batch_span.set_attrs(packets=self.count, busy=self.busy,
                                       relowers=self.relowers)
            self._batch_span.__exit__(None, None, None)
            self._batch_span = None
        self.conn.send(("done", self.count, self.busy, meta, self.relowers,
                        self.capture.finish()))


# ---------------------------------------------------------------------------
# Attachment
# ---------------------------------------------------------------------------


def _finalize_pool(pool: WorkerPool) -> None:
    pool.close()


def ensure_pool(pipeline, workers: int) -> WorkerPool:
    """The pipeline's live pool for ``workers``, creating or resizing it.

    The pool is owned by the pipeline (``pipeline._pool``) and torn down
    by :meth:`Pipeline.close`; a ``weakref.finalize`` reaps workers and
    shared memory when the pipeline is garbage collected or at
    interpreter exit, so leaked pipelines cannot strand children.
    """
    pool = getattr(pipeline, "_pool", None)
    if pool is not None and pool._shms and pool.workers == workers:
        if not pool.alive:
            # A worker died: fresh workers over the same segments.
            pool._spawn(pipeline)
        return pool
    if pool is not None:
        pool.close()
    pool = WorkerPool(pipeline, workers)
    pipeline._pool = pool
    weakref.finalize(pipeline, _finalize_pool, pool)
    return pool
