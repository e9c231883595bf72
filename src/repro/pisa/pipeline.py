"""The staged PISA pipeline simulator.

This is the reproduction's stand-in for the Barefoot Tofino (see
DESIGN.md §2): it loads a :class:`~repro.core.program.CompiledProgram`
— the stage mapping, register allocation, and symbolic assignment the
P4All compiler produced — validates it against the target's resource
model, and executes packets through it with faithful feed-forward
semantics:

* each stage's units read the stage-entry PHV snapshot and commit their
  writes at stage exit;
* registers live in exactly one stage and are only touched there;
* per-stage ALU, memory, hash-unit, and PHV budgets are re-checked at
  load time (defense in depth over the ILP's constraints).

Applications drive it through :meth:`Pipeline.process` and the
control-plane helpers (:meth:`table_add`, :meth:`register_dump`, ...).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..lang import ast
from ..lang.symbols import eval_static
from ..obs import flight
from ..obs import metrics as obs_metrics
from ..obs import trace
from .hashing import MultiplyShiftHash
from .interp import ExecContext, SimulationError, exec_unit_body
from .packet import Packet
from .phv import PhvLayout
from .registers import RegisterBanks, RegisterFile
from .resources import TargetSpec
from .results import BatchResults, PipelineResult
from .tables import MatchActionTable, TableEntry

__all__ = ["Pipeline", "PipelineResult", "ValidationError", "ENGINES"]

#: Available execution engines: the compile-once generated-code engine
#: (see repro.pisa.compiled), the columnar whole-batch engine (see
#: repro.pisa.vector — the generated code for single packets, struct-of-
#: arrays kernels for process_many/process_columns; the default), and
#: the tree-walking reference interpreter.
ENGINES = ("compiled", "vector", "interp")


class ValidationError(Exception):
    """The compiled layout violates the target's resource model."""


class Pipeline:
    """Executable pipeline built from a compiled program.

    ``banks``/``bank``: the :class:`~repro.pisa.registers.RegisterBanks`
    set whose bank ``bank`` holds this pipeline's registers (default: a
    set of its own). Pipelines of one set run one layout, and the vector
    plan of any of them serves every member's lanes in one batch (see
    :meth:`process_columns`).
    """

    def __init__(self, compiled, validate: bool = True,
                 engine: str | None = None,
                 banks: RegisterBanks | None = None, bank: int = 0):
        self.compiled = compiled
        self.banks = banks if banks is not None else RegisterBanks(1)
        self.bank = bank
        self.banks.join(bank, self)
        self.target: TargetSpec = compiled.target
        self.info = compiled.info
        self._hash_fns: dict[int, MultiplyShiftHash] = {}
        self._static_env = dict(self.info.consts)
        self._static_env.update(compiled.symbol_values)

        self.phv_layout = self._build_phv_layout()
        self.registers = self._build_registers()
        self.tables = self._build_tables()
        self._stage_units = self._organize_units()
        self.packets_processed = 0
        self._packet_keys: dict[str, str] = {}
        self._in_batch = False
        self._quiesce_pending: list = []
        self.engine = engine if engine is not None else "vector"
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"choose one of {ENGINES}")
        self.plan = None
        self.vplan = None
        #: Max packets per whole-batch vector kernel invocation; chunk
        #: boundaries are also quiesce drain points.
        self.vector_chunk = 8192
        #: Stats of the last sharded process_many (see repro.pisa.sharded).
        self.last_shard_report = None
        #: Persistent sharded worker pool (see repro.pisa.pool), attached
        #: lazily by the first pooled workers>1 batch, torn down by close().
        self._pool = None
        if self.engine in ("compiled", "vector"):
            from .compiled import build_plan

            self.plan = build_plan(self)
        if self.engine == "vector":
            from .vector import VectorPlan

            # Constructs the lowerer rejects become per-stage islands
            # inside; anything that escapes is a lowering bug and must
            # fail the build, not silently cost the columnar path.
            self.vplan = VectorPlan(self)
            self._export_island_metrics()
        if validate:
            self.validate()
        self._export_occupancy_metrics()

    # -- construction ---------------------------------------------------------
    def _build_phv_layout(self) -> PhvLayout:
        layout = PhvLayout(self.target.phv_bits)
        for fd in self.info.metadata.values():
            base = f"meta.{fd.name}"
            if fd.array_size is None:
                layout.allocate(base, fd.width)
                continue
            count = int(eval_static(fd.array_size, self._static_env))
            for i in range(count):
                layout.allocate(f"{base}[{i}]", fd.width)
        for name, width in self.info.header_fields.items():
            layout.allocate(f"hdr.{name}", width)
        return layout

    def _build_registers(self) -> RegisterFile:
        """Every register instance, a family's in one flat block (see
        ``RegisterFile.create_family``): this pipeline's row of the
        family's bank block."""
        regs = RegisterFile()
        families: dict[str, list] = {}
        for alloc in self.compiled.registers:
            families.setdefault(alloc.family, []).append(
                (alloc.index, alloc.cells, alloc.width, alloc.stage))
        for family, rows in families.items():
            block = self.banks.block(family, sum(row[1] for row in rows))
            regs.create_family(family, rows, block[self.bank])
        return regs

    def _build_tables(self) -> dict[str, MatchActionTable]:
        from ..analysis.ir import field_key

        tables: dict[str, MatchActionTable] = {}
        for name, decl in self.info.tables.items():
            keys = [field_key(k.expr, self.info.consts) for k in decl.keys]
            kinds = [k.match_kind for k in decl.keys]
            size = 1024
            if decl.size is not None:
                size = int(eval_static(decl.size, self._static_env))
            tables[name] = MatchActionTable(
                name=name,
                key_fields=keys,
                match_kinds=kinds,
                size=size,
                default_action=decl.default_action,
            )
        return tables

    def _organize_units(self) -> list[list]:
        stages: list[list] = [[] for _ in range(self.target.stages)]
        for unit in self.compiled.units:
            stages[unit.stage].append(unit)
        return stages

    # -- validation -------------------------------------------------------------
    def resource_occupancy(self) -> list[dict[str, int]]:
        """Per-stage resource usage of this layout on its target.

        One dict per physical stage with ``memory_bits`` (registers plus
        match-action table memory), ``stateful_alus``, ``stateless_alus``,
        ``hash_units``, and ``units`` (allocated structure instances).
        This is the same accounting :meth:`validate` enforces and the
        observability layer exports as per-stage gauges.
        """
        from ..core.tablemem import table_memory_bits

        target = self.target
        stages: list[dict[str, int]] = []
        for stage in range(target.stages):
            mem = self.registers.memory_bits_in_stage(stage)
            stateful = stateless = hashes = 0
            for unit in self._stage_units[stage]:
                if unit.instance.table is not None:
                    mem += table_memory_bits(
                        self.info.tables[unit.instance.table], self.info
                    )
                cost = unit.instance.cost
                stateful += target.hf(cost)
                stateless += target.hl(cost)
                hashes += cost.hash_ops
            stages.append({
                "memory_bits": mem,
                "stateful_alus": stateful,
                "stateless_alus": stateless,
                "hash_units": hashes,
                "units": len(self._stage_units[stage]),
            })
        return stages

    _OCCUPANCY_GAUGES = (
        ("memory_bits", "p4all_stage_memory_bits",
         "Register + table memory bits allocated in the stage."),
        ("stateful_alus", "p4all_stage_stateful_alus",
         "Stateful ALUs consumed in the stage."),
        ("stateless_alus", "p4all_stage_stateless_alus",
         "Stateless ALUs consumed in the stage."),
        ("hash_units", "p4all_stage_hash_units",
         "Hash units consumed in the stage."),
    )

    def _export_occupancy_metrics(self) -> None:
        """Publish per-stage occupancy gauges (latest built pipeline wins)."""
        for stage, occ in enumerate(self.resource_occupancy()):
            for key, metric, help_text in self._OCCUPANCY_GAUGES:
                obs_metrics.gauge(
                    metric, help=help_text, labels=("stage",),
                ).set(occ[key], stage=str(stage))

    def _export_island_metrics(self) -> None:
        """Count this build's vector-plan island stages by reason, so a
        stage demoted to the scalar tier shows in ``p4all obs``."""
        islands = obs_metrics.counter(
            "p4all_vector_island_stages",
            help="Stages the vector plan demoted to scalar islands, "
                 "summed over pipeline builds.",
            labels=("reason",),
        )
        for reason, stages in Counter(
                self.vplan.island_reasons.values()).items():
            islands.inc(stages, reason=reason)

    def tier_report(self) -> list[dict]:
        """Per active stage, the tier that runs it: ``stage``, ``units``,
        the ``scalar`` plan's form and the ``vector`` plan's —
        ``straight-line``, ``buffered: <why>`` or ``island: <why>`` (None:
        no vector plan runs it) — and ``rerolled``, the vector plan's
        stacked hashes and re-rolled register families that run in the
        stage for later ones too — and ``banks``, the register banks one
        vector batch serves. Empty on the interpreter: no plan."""
        if self.plan is None:
            return []
        forms = self.vplan.forms if self.vplan else {}
        rerolls = self.vplan.rerolls if self.vplan else {}
        return [{
            "stage": sp.stage, "units": sp.units,
            "scalar": (f"buffered: {sp.buffered}" if sp.buffered
                       else "straight-line"),
            "vector": forms.get(sp.stage),
            "rerolled": list(rerolls.get(sp.stage, ())),
            "banks": self.banks.k,
        } for sp in self.plan.stages]

    def validate(self) -> None:
        """Re-check every per-stage resource budget against the layout."""
        target = self.target
        if self.phv_layout.used_bits > target.phv_bits:  # pragma: no cover
            raise ValidationError("PHV allocation exceeds capacity")
        for stage, occ in enumerate(self.resource_occupancy()):
            if occ["memory_bits"] > target.memory_bits_per_stage:
                raise ValidationError(
                    f"stage {stage}: {occ['memory_bits']} register bits exceed "
                    f"{target.memory_bits_per_stage}"
                )
            if occ["stateful_alus"] > target.stateful_alus_per_stage:
                raise ValidationError(
                    f"stage {stage}: {occ['stateful_alus']} stateful ALUs exceed "
                    f"{target.stateful_alus_per_stage}"
                )
            if occ["stateless_alus"] > target.stateless_alus_per_stage:
                raise ValidationError(
                    f"stage {stage}: {occ['stateless_alus']} stateless ALUs exceed "
                    f"{target.stateless_alus_per_stage}"
                )
            if occ["hash_units"] > target.hash_units_per_stage:
                raise ValidationError(
                    f"stage {stage}: {occ['hash_units']} hash ops exceed "
                    f"{target.hash_units_per_stage} hash units"
                )
        # Registers must be accessed only from their own stage.
        for unit in self.compiled.units:
            for fam, idx in unit.instance.registers:
                reg_stage = self.registers.stage_of(f"{fam}[{idx}]")
                if reg_stage != unit.stage:
                    raise ValidationError(
                        f"unit {unit.label} in stage {unit.stage} touches register "
                        f"{fam}[{idx}] living in stage {reg_stage}"
                    )

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Tear down the persistent sharded worker pool, if any.

        Reaps the pool's worker processes and releases its shared-memory
        segments. Safe at any time: called mid-batch (e.g. from a
        :meth:`process_many` callback) the teardown is deferred to the
        next :meth:`quiesce` drain point, never racing in-flight
        workers. Idempotent, and the pipeline stays usable — the next
        ``workers > 1`` batch just spawns a fresh pool. ``with
        Pipeline(...) as pipe:`` closes on exit.
        """
        self.quiesce(self._close_pool)

    def _close_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- control plane -------------------------------------------------------------
    def _journal_table_op(self, op: tuple) -> None:
        """Forward a table mutation to the pool's replay journal, so its
        workers' cached vector plans are invalidated and re-lowered at
        the next batch instead of forcing a respawn."""
        pool = self._pool
        if pool is not None and pool.alive:
            pool.note_table_op(op, self)

    def table_add(self, table: str, match: tuple, action: str,
                  action_data: tuple = (), priority: int = 0) -> None:
        """Install a match-action rule (control-plane operation)."""
        self.tables[table].add_entry(
            TableEntry(match=match, action=action,
                       action_data=action_data, priority=priority)
        )
        self._journal_table_op(("add", table, match, action,
                                action_data, priority))

    def table_remove(self, table: str, match: tuple) -> bool:
        removed = self.tables[table].remove_entry(match)
        if removed:
            self._journal_table_op(("remove", table, match))
        return removed

    def register_dump(self, family: str, index: int = 0):
        """Read a whole register array (control-plane snapshot)."""
        return self.registers.get(f"{family}[{index}]").dump()

    def _hash_fn(self, seed: int):
        fn = self._hash_fns.get(seed)
        if fn is None:
            fn = self._hash_fns[seed] = MultiplyShiftHash(seed)
        return fn

    def hash_value(self, seed: int, *values: int, width: int) -> int:
        """Compute the same hash the data plane uses (for controllers that
        must install state at the index a packet will probe)."""
        return self._hash_fn(seed)(*values, width=width)

    # -- quiesce points ---------------------------------------------------------
    @property
    def in_batch(self) -> bool:
        """True while a :meth:`process_many` batch is in flight."""
        return self._in_batch

    def quiesce(self, fn=None):
        """Run ``fn()`` at a point where no packet is mid-pipeline.

        Register state is only consistent *between* packets (and between
        the paired control-plane writes a batch callback makes), so bulk
        readers — snapshots, migration — must not touch the register
        file at an arbitrary moment of a running batch. ``quiesce``
        gives them a defined drain point:

        * with no batch in flight, ``fn`` runs immediately and its
          result is returned;
        * called from inside a batch (e.g. a :meth:`process_many`
          callback), ``fn`` is deferred to the next inter-packet drain
          boundary — after the current packet *and* its callback have
          fully completed, before the next packet enters the pipeline —
          and ``None`` is returned;
        * ``fn=None`` is a barrier probe: it returns ``True`` when
          already at a quiesce point, ``False`` when the call was made
          mid-batch (nothing is scheduled).
        """
        if fn is None:
            return not self._in_batch
        if not self._in_batch:
            return fn()
        self._quiesce_pending.append(fn)
        return None

    def _drain_quiesce(self) -> None:
        """Run deferred quiesce callbacks (at an inter-packet boundary).

        The pipeline reads as quiesced while they run: a callback *is*
        at a drain point, so nested :meth:`quiesce` calls (and snapshot
        guards keyed on :attr:`in_batch`) execute immediately.
        """
        was_in_batch = self._in_batch
        self._in_batch = False
        try:
            while self._quiesce_pending:
                self._quiesce_pending.pop(0)()
        finally:
            self._in_batch = was_in_batch

    # -- data plane -------------------------------------------------------------
    def _packet_key(self, name: str) -> str:
        """Resolve a packet field name to its PHV key (cached)."""
        key = self._packet_keys.get(name)
        if key is not None:
            return key
        meta_key = f"meta.{name}"
        hdr_key = f"hdr.{name}"
        if meta_key in self.phv_layout:
            key = meta_key
        elif hdr_key in self.phv_layout:
            key = hdr_key
        else:
            raise SimulationError(
                f"packet field {name!r} matches no metadata or header field"
            )
        self._packet_keys[name] = key
        return key

    def _load_packet(self, packet: Packet) -> dict[str, int]:
        resolve = self._packet_key
        return {resolve(name): int(value)
                for name, value in packet.fields.items()}

    def process(self, packet: Packet) -> PipelineResult:
        """Run one packet through all stages; returns the final PHV.

        Dispatches to the configured engine: ``"compiled"`` and
        ``"vector"`` execute the pre-lowered plan (see
        :mod:`repro.pisa.compiled`), ``"interp"`` walks the AST — the
        reference semantics the differential tests hold the plan
        engines to.
        """
        if self.plan is not None:
            return self._process_compiled(packet)
        return self._process_interp(packet)

    def _process_compiled(self, packet: Packet) -> PipelineResult:
        masks = self.plan.masks
        resolve = self._packet_key
        phv: dict[str, int] = {}
        for name, value in packet.fields.items():
            key = resolve(name)
            phv[key] = int(value) & masks[key]
        table_hits: dict[str, bool] = {}
        self.plan.fast_run(phv, table_hits)
        self.packets_processed += 1
        return PipelineResult(phv=phv, table_hits=table_hits)

    def _process_interp(self, packet: Packet) -> PipelineResult:
        phv = self.phv_layout.instantiate()
        phv.load(self._load_packet(packet))
        table_hits: dict[str, bool] = {}

        for stage in range(self.target.stages):
            units = self._stage_units[stage]
            if not units:
                continue
            snapshot = phv.snapshot()
            commits: dict[str, tuple[int, str]] = {}
            for unit in units:
                ctx = ExecContext(
                    snapshot=snapshot,
                    registers=self.registers,
                    tables=self.tables,
                    hash_fns=self._hash_fns,
                    actions=self.info.actions,
                    consts=self.info.consts,
                )
                ran = exec_unit_body(
                    unit.instance.body, unit.instance.guard,
                    unit.instance.table, ctx,
                )
                table_hits.update(ctx.table_hits)
                if not ran:
                    continue
                for key, value in ctx.local_writes.items():
                    prior = commits.get(key)
                    if prior is not None and prior[0] != value:
                        raise SimulationError(
                            f"stage {stage}: units {prior[1]!r} and "
                            f"{unit.label!r} write different values to {key!r}"
                        )
                    commits[key] = (value, unit.label)
            for key, (value, _who) in commits.items():
                phv.set(key, value)
        self.packets_processed += 1
        return PipelineResult(phv=phv.snapshot(), table_hits=table_hits)

    def process_many(self, packets, collect: bool = True, callback=None,
                     workers: int = 1,
                     shard_field: str | None = None
                     ) -> BatchResults | int:
        """Run a packet sequence through the pipeline (batched fast path).

        Three modes:

        * default (``collect=True``): returns a
          :class:`~repro.pisa.results.BatchResults` — a lane-ordered
          sequence of :class:`PipelineResult` with ``column(key)`` /
          ``hit_column(table)`` for whole-batch scans. The vector engine
          keeps its columns and builds rows only when they are indexed
          or iterated; the scalar engines build every row as they go,
          so their trace-scale callers should prefer one of the
          streaming modes below;
        * ``callback=fn``: streams each result to ``fn(result)`` as it is
          produced and returns the packet count — the controller can act
          between packets (promotion, eviction) without a result list
          ever existing;
        * ``collect=False`` (no callback): discards results entirely and
          returns the packet count — for workloads that only care about
          the register state left behind.

        Each call is one ``pisa.batch`` span and one bump of the
        ``p4all_packets_total`` counter; the per-packet :meth:`process`
        path carries no instrumentation at all, so batch size sets the
        observability overhead.

        While the batch runs, :attr:`in_batch` is True and bulk register
        reads must go through :meth:`quiesce`, whose callbacks drain at
        the inter-packet boundaries of this loop (after each packet and
        its callback complete) and once more when the batch ends. Under
        the vector engine the drain points are chunk boundaries
        (:attr:`vector_chunk` packets apart); under ``workers > 1`` the
        only drain point is the worker-join barrier at batch end.

        ``workers > 1`` fans the batch out to the pipeline's persistent
        worker pool — or, without a usable vector plan or ``fork``, runs
        the same partitions inline — partitioned by flow-hash sharding
        (``shard_field`` picks the key; default ``flow_id``/first
        field), merging per-worker register deltas on join — see
        :mod:`repro.pisa.sharded` for the merge-exactness rules.
        Sharding is incompatible with ``callback`` (the controller would
        race its own workers).

        A caller that already holds its batch as arrays should use
        :meth:`process_columns` and skip the ``Packet`` objects.
        """
        if workers > 1 and callback is not None:
            raise ValueError("process_many: workers > 1 cannot stream "
                             "through a callback")
        return self._batch(
            lambda: self._process_many(packets, collect, callback, workers,
                                       shard_field),
            vector=callback is None, workers=workers)

    def process_columns(self, columns: dict, collect: bool = True,
                        bank=None) -> BatchResults | int:
        """:meth:`process_many` for a batch given as columns.

        ``columns`` maps packet field names to integer arrays of one
        common length ``n`` — or plain ints, which every lane carries
        (all ints: one lane). Lane ``i`` is the packet
        ``Packet(fields={name: column[i], ...})`` and the call equals
        ``process_many`` of those packets on every engine — results,
        table hits, register state, the span and the counter — without
        the packets ever existing: the vector engine loads the columns
        directly (the loader ``process_many`` reaches through its
        ``Packet`` front end), the scalar engines walk the rows.

        ``bank`` (vector engine only): per lane, the bank of this
        pipeline's :class:`~repro.pisa.registers.RegisterBanks` set whose
        switch the lane is a packet of. Lane ``i`` then runs against bank
        ``bank[i]``'s registers, so one call serves the lanes of several
        switches that run this layout; each bank's lanes see exactly what
        they would alone, in lane order. By default every lane is this
        pipeline's.
        """
        arrays = {}
        for name, values in columns.items():
            self._packet_key(name)      # an unknown field fails up front
            array = np.asarray(values)
            if array.dtype.kind not in "iub" and array.dtype != object:
                raise TypeError(f"process_columns: field {name!r} holds "
                                f"{array.dtype} values, not integers")
            arrays[name] = array
        lengths = {a.shape for a in arrays.values() if a.ndim}
        if len(lengths) > 1 or any(len(shape) != 1 for shape in lengths):
            raise ValueError("process_columns: columns must be one-"
                             f"dimensional and equally long, got {lengths}")
        n = lengths.pop()[0] if lengths else 1
        arrays = {name: np.broadcast_to(a, (n,))
                  for name, a in arrays.items()}
        if bank is not None:
            if self.vplan is None or not self.vplan.ok:
                raise ValueError("process_columns: bank lanes need a "
                                 "vector plan")
            bank = np.asarray(bank, dtype=np.int64)
            if bank.shape != (n,) or not (
                    0 <= bank.min(initial=0)
                    and bank.max(initial=0) < self.banks.k):
                raise ValueError(f"process_columns: bank must be {n} "
                                 f"indexes below {self.banks.k}")
        return self._batch(
            lambda: self._process_columns(arrays, n, collect, bank),
            vector=True)

    def _batch(self, run, vector: bool, workers: int = 1):
        """``run()`` as one instrumented batch: in-batch flag and quiesce
        drain, ``pisa.batch`` span, packet counter, flight note."""
        attrs = {"engine": self.engine, "workers": workers}
        if vector and self.vplan is not None and self.vplan.ok:
            # A vector batch: say how much of it ran on the scalar tier.
            attrs["island_stages"] = len(self.vplan.island_stages)
        with trace.span("pisa.batch", **attrs) as span:
            self._in_batch = True
            try:
                result = run()
            finally:
                self._in_batch = False
                self._drain_quiesce()
            count = result if isinstance(result, int) else len(result)
            span.set_attrs(packets=count)
            obs_metrics.counter(
                "p4all_packets_total",
                help="Packets processed through batched pipeline runs.",
                labels=("engine",),
            ).inc(count, engine=self.engine)
            flight.note("batch", "pisa.batch", packets=count, **attrs)
            return result

    def _process_many(self, packets, collect: bool, callback,
                      workers: int = 1,
                      shard_field: str | None = None
                      ) -> BatchResults | int:
        pending = self._quiesce_pending
        if workers > 1:
            from .sharded import run_sharded

            return run_sharded(self, packets, collect, workers, shard_field)
        if callback is None and self.vplan is not None and self.vplan.ok:
            if not isinstance(packets, list):
                packets = list(packets)
            return self._process_vector(
                len(packets),
                lambda start, stop: self.vplan._load(packets[start:stop]),
                collect)
        if callback is not None:
            count = 0
            for packet in packets:
                callback(self.process(packet))
                count += 1
                if pending:
                    self._drain_quiesce()
            return count
        if collect:
            results = []
            for packet in packets:
                results.append(self.process(packet))
                if pending:
                    self._drain_quiesce()
            return BatchResults(results)
        count = 0
        for packet in packets:
            self.process(packet)
            count += 1
            if pending:
                self._drain_quiesce()
        return count

    def _process_columns(self, arrays: dict, n: int, collect: bool,
                         bank=None) -> BatchResults | int:
        if self.vplan is not None and self.vplan.ok:
            return self._process_vector(
                n,
                lambda start, stop: self.vplan.load_columns(
                    {name: a[start:stop] for name, a in arrays.items()},
                    stop - start,
                    bank=None if bank is None else bank[start:stop]),
                collect)
        names = list(arrays)
        rows = zip(*(a.tolist() for a in arrays.values()))
        return self._process_many(
            (Packet(fields=dict(zip(names, row))) for row in rows),
            collect, None)

    def _process_vector(self, n: int, load,
                        collect: bool) -> BatchResults | int:
        """Whole-batch columnar execution of ``n`` lanes, chunked so
        deferred quiesce callbacks still get periodic drain points;
        ``load(start, stop)`` is the :class:`PhvBatch` of a lane range."""
        pending = self._quiesce_pending
        chunk = max(1, int(self.vector_chunk))
        run_batch = self.vplan.run_batch
        results = BatchResults(wide=self.vplan.wide) if collect else None
        for start in range(0, n, chunk):
            ran = run_batch(load(start, min(n, start + chunk)), collect)
            if collect:
                results.extend(ran)
            if pending:
                self._drain_quiesce()
        return results if collect else n
