"""Flow-hash-sharded multiprocess fan-out for ``Pipeline.process_many``.

Workers partition the batch by the shard ring's key hash
(:func:`repro.fabric.shard.key_hash`, the same splitmix64 the fleet
uses), so every worker owns a disjoint slice of the *flow keyspace* —
the same invariant the multi-switch fabric relies on. Register cells
are still shared arrays indexed by hashes of those keys, so two workers
can land on the same cell; the per-register merge discipline makes the
join exact where the algebra allows it:

* **additive** registers (touched only via ``add``/``add_read``/
  ``cond_add``/``cond_add_read``) merge by summing per-worker deltas
  mod 2**64 and re-masking — bit-exact even for cross-shard cell
  collisions, because counter addition commutes;
* **max** / **min** registers (only ``max_update`` / ``min_update``)
  merge via ``np.maximum``/``np.minimum`` against the parent cell —
  also exact (the extremum over any partition of the updates is the
  extremum of the per-partition extrema);
* everything else (``write``, ``swap``, or mixed methods) merges by
  overwriting the parent's cells with each worker's changed cells in
  worker order — exact when workers touch disjoint cells (the common
  case under flow sharding), last-worker-wins on a collision. The docs
  call this caveat out; workloads needing stronger semantics should
  stay single-process.

Two execution paths share that merge discipline, and the code picks
between them from what it can observe — there is no mode switch:

* **pool** — the persistent shared-memory worker pool
  (:mod:`repro.pisa.pool`): workers forked once per pipeline, PHV
  columns scattered through shared memory, vector plans cached across
  batches. Taken whenever the pipeline has a usable vector plan and
  the pool attaches (the platform can fork, the workers come up).
* **inline** — :func:`run_inline`: the partitions run sequentially
  in-process. Merely slower, never wrong; the path for the scalar
  engines and for platforms without ``fork``, and the reference the
  pool is tested against.

Landing on inline **is loud**: a ``pisa.shard.degraded`` trace event
plus the ``p4all_shard_degraded_total`` counter fire, and the report's
``mode`` says ``"inline"`` — callers can always tell they got
sequential execution. Each worker reports its busy seconds so callers
(the end-to-end benchmark, the fleet controller) can compute a
makespan-modeled aggregate next to honest wall-clock numbers; the
parent records both on ``pipeline.last_shard_report``.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..lang import ast
from ..obs import metrics as obs_metrics
from ..obs import trace
from .compiled import _REG_METHODS, _NotStatic, _fold
from .results import BatchResults

__all__ = ["run_sharded", "run_inline", "register_methods",
           "classify_registers", "shard_assignments"]

_MASK64 = (1 << 64) - 1
_ADDITIVE = frozenset({"add", "add_read", "cond_add", "cond_add_read"})
_MAX_ONLY = frozenset({"max_update"})
_MIN_ONLY = frozenset({"min_update"})


# ---------------------------------------------------------------------------
# Register merge classification (static, per pipeline)
# ---------------------------------------------------------------------------


def _static_instance(expr, consts) -> Optional[str]:
    """Resolve a register reference AST to an instance name, or None."""
    if isinstance(expr, ast.Name):
        return f"{expr.ident}[0]"
    if isinstance(expr, ast.Index) and isinstance(expr.base, ast.Name):
        try:
            idx = _fold(expr.index, consts)
        except _NotStatic:
            return None
        return f"{expr.base.ident}[{idx}]"
    return None


def register_methods(pipeline) -> Optional[dict[str, set[str]]]:
    """Map register instance -> the register methods the program calls
    on it, or None when some reference's family cannot be resolved.

    Scans every placed unit body *and* every declared table action for
    register method calls. A reference whose index cannot be folded
    (e.g. ``counts[r]`` with ``r`` an action parameter) attributes the
    method to every instance of that family.
    """
    consts = pipeline.info.consts
    methods: dict[str, set[str]] = {}
    family_methods: dict[str, set[str]] = {}
    dynamic = False

    def scan(stmts) -> None:
        nonlocal dynamic
        for stmt in stmts:
            for node in ast.walk(stmt):
                # Register calls appear both as statements and as
                # expressions (``meta.x = reg.add_read(...)``), so match
                # the Call node itself, not just CallStmt wrappers.
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Member)):
                    continue
                func = node.func
                if func.name not in _REG_METHODS:
                    continue
                name = _static_instance(func.base, consts)
                if name is not None:
                    methods.setdefault(name, set()).add(func.name)
                elif (isinstance(func.base, ast.Index)
                      and isinstance(func.base.base, ast.Name)):
                    family_methods.setdefault(
                        func.base.base.ident, set()).add(func.name)
                else:
                    dynamic = True

    for units in pipeline._stage_units:
        for unit in units:
            scan(unit.instance.body)
    for decl in pipeline.info.actions.values():
        scan(decl.body.stmts)
    if dynamic:
        return None
    return {
        name: (methods.get(name, set())
               | family_methods.get(name.rsplit("[", 1)[0], set()))
        for name in pipeline.registers.names()
    }


def classify_registers(pipeline) -> dict[str, str]:
    """Map register instance -> merge class: ``"additive"``, ``"max"``,
    ``"min"``, or ``"overwrite"`` — by the methods
    :func:`register_methods` finds on it. A reference whose family is
    itself unknown makes the whole classification conservative
    (everything merges by overwrite).
    """
    methods = register_methods(pipeline)
    classes: dict[str, str] = {}
    for name in pipeline.registers.names():
        used = methods[name] if methods is not None else None
        if not used:
            classes[name] = "overwrite"
        elif used <= _ADDITIVE:
            classes[name] = "additive"
        elif used <= _MAX_ONLY:
            classes[name] = "max"
        elif used <= _MIN_ONLY:
            classes[name] = "min"
        else:
            classes[name] = "overwrite"
    return classes


# ---------------------------------------------------------------------------
# Shard assignment
# ---------------------------------------------------------------------------


def shard_assignments(packets, workers: int,
                      shard_field: Optional[str] = None) -> np.ndarray:
    """Worker index per packet: ``splitmix64(key) % workers``.

    The shard field defaults to ``flow_id`` when present, else the first
    field of the first packet. Packets missing the field hash key 0.
    """
    from ..fabric.shard import key_hash

    if shard_field is None:
        first = packets[0].fields
        shard_field = "flow_id" if "flow_id" in first else next(iter(first))
    keys = np.fromiter(
        ((int(p.fields.get(shard_field, 0)) & _MASK64) for p in packets),
        dtype=np.uint64, count=len(packets))
    return (key_hash(keys) % np.uint64(workers)).astype(np.int64)


# ---------------------------------------------------------------------------
# Worker execution + merge
# ---------------------------------------------------------------------------


def _run_partition(pipeline, packets, collect: bool, worker: int):
    """Run one partition in place, then put the registers back; returns
    (count, busy_s, deltas, results).

    ``busy_s`` is the partition's *CPU* seconds, not wall time — the
    same clock the pool workers report, so the makespan model
    (``packets / max(busy)``) reads alike on both paths.

    ``deltas`` maps register instance -> (changed_idx, delta, new)
    relative to the register state at call time. The registers are
    restored to that state before returning: every partition starts
    from the same snapshot and the changes reach the parent only
    through :func:`_merge_deltas`, exactly as a pool worker's do.
    """
    registers = pipeline.registers
    before = {name: registers.get(name).dump() for name in registers.names()}
    start = time.process_time()
    with trace.span("pisa.worker.batch", worker=worker,
                    shard_mode="inline") as span:
        result = pipeline._process_many(packets, collect, None)
        span.set_attrs(packets=len(packets))
    busy = time.process_time() - start
    obs_metrics.counter(
        "p4all_worker_packets_total",
        help="Packets executed inside worker processes.",
        labels=("worker", "shard_mode"),
    ).inc(len(packets), worker=worker, shard_mode="inline")
    deltas: dict[str, tuple] = {}
    for name, snap in before.items():
        data = registers.get(name)._data
        changed = np.nonzero(data != snap)[0]
        if changed.size:
            # new - old in uint64 wraps mod 2**64: exactly the summed
            # increments for additive registers, and recoverable new
            # values for every class (parent keeps the payload raw).
            deltas[name] = (changed, data[changed] - snap[changed],
                            data[changed])
            data[:] = snap
    count = result if isinstance(result, int) else len(result)
    results = result if collect else None
    return count, busy, deltas, results


def _merge_deltas(pipeline, classes: dict[str, str],
                  worker_deltas: list[dict]) -> None:
    """Fold per-worker register changes into the parent, in worker order."""
    registers = pipeline.registers
    for deltas in worker_deltas:
        for name, (idx, delta, new) in deltas.items():
            array = registers.get(name)
            kind = classes.get(name, "overwrite")
            if kind == "additive":
                array.merge_delta(idx, delta)
            elif kind in ("max", "min"):
                array.merge_extremum(idx, new, kind)
            else:
                array.overwrite_cells(idx, new)


def run_sharded(pipeline, packets, collect: bool, workers: int,
                shard_field: Optional[str] = None):
    """Partition ``packets`` by flow hash, run the shards on the worker
    pool (else inline), merge register deltas on join. Returns results
    (lane order preserved) or the packet count, and records per-worker
    stats on ``pipeline.last_shard_report``.
    """
    from .pool import PoolUnavailable, ensure_pool

    if not isinstance(packets, list):
        packets = list(packets)
    if not packets:
        pipeline.last_shard_report = {
            "workers": workers, "counts": [], "busy_seconds": [],
            "mode": "empty",
        }
        return BatchResults([]) if collect else 0
    # Deferred quiesce callbacks queued before the fan-out (e.g. by the
    # iterable that produced the packets) must fire at the worker-join
    # boundary, against the merged registers — never inside a partition.
    # Stash them; restored below, they run in process_many's
    # end-of-batch drain, which follows the join.
    stash = pipeline._quiesce_pending[:]
    pipeline._quiesce_pending.clear()
    try:
        vplan = pipeline.vplan
        if vplan is None or not vplan.ok:
            reason = "no_vector_plan"
        else:
            # Pool *attach* failures (no fork, dead spawn) degrade;
            # failures *during* a pooled batch are real simulation
            # errors and propagate.
            try:
                pool = ensure_pool(pipeline, workers)
            except PoolUnavailable as exc:
                reason = f"pool_unavailable: {exc}"
            else:
                result, report = pool.run(pipeline, packets, collect,
                                          shard_field)
                pipeline.last_shard_report = report
                _count_batch("pool")
                return result
        _note_degraded(reason)
        return run_inline(pipeline, packets, collect, workers, shard_field)
    finally:
        pipeline._quiesce_pending[:0] = stash


def _count_batch(mode: str) -> None:
    obs_metrics.counter(
        "p4all_shard_batches_total",
        help="Sharded process_many batches by execution mode actually used.",
        labels=("shard_mode",),
    ).inc(shard_mode=mode)


def _note_degraded(reason: str) -> None:
    """The pool could not serve this batch; it runs inline instead."""
    trace.event("pisa.shard.degraded", actual="inline", reason=reason)
    obs_metrics.counter(
        "p4all_shard_degraded_total",
        help="Sharded batches that fell back from the pool to inline.",
        labels=("shard_mode", "reason"),
    ).inc(shard_mode="inline", reason=reason)


def run_inline(pipeline, packets, collect: bool, workers: int,
               shard_field: Optional[str] = None):
    """Run the ``workers`` flow-hash partitions one after another in
    this process and join them through :func:`_merge_deltas`.

    Same partitioning and merge discipline as the pool, no parallelism:
    the fallback when the pool cannot serve a pipeline, and the
    reference the pool is tested against.
    """
    n = len(packets)
    assign = shard_assignments(packets, workers, shard_field)
    lanes = [np.nonzero(assign == w)[0] for w in range(workers)]
    classes = classify_registers(pipeline)
    counts: list[int] = []
    busys: list[float] = []
    worker_deltas: list[dict] = []
    worker_results: list = []
    for w, lane in enumerate(lanes):
        count, busy, deltas, results = _run_partition(
            pipeline, [packets[i] for i in lane.tolist()], collect, worker=w)
        counts.append(count)
        busys.append(busy)
        worker_deltas.append(deltas)
        worker_results.append(results)
    _merge_deltas(pipeline, classes, worker_deltas)
    pipeline.last_shard_report = {
        "workers": workers,
        "counts": counts,
        "busy_seconds": busys,
        "mode": "inline",
        "register_classes": classes,
    }
    _count_batch("inline")
    if not collect:
        return n
    out: list = [None] * n
    for lane, results in zip(lanes, worker_results):
        for pos, i in enumerate(lane.tolist()):
            out[i] = results[pos]
    return BatchResults(out)
