"""NetCache: an elastic key-value cache with a count-min hot-key tracker.

The paper's running application (§3): a count-min sketch tracks key
popularity; a key-value store serves hot keys from the switch. Both are
instantiated from the module library and weighted by the utility function
``0.4*(cms_rows*cms_cols) + 0.6*(kv_rows*kv_cols)`` (the paper's
``0.4*(rows*cols) + 0.6*(kv_items)``).

Two execution paths:

* :class:`NetCacheApp` — compiles the elastic program, loads it into the
  PISA pipeline simulator, and runs a key-request trace with a NetCache
  controller (hot keys promoted into the cache when their sketch estimate
  crosses a threshold);
* :func:`simulate_netcache` — the same control loop over the *reference*
  structures, fast enough for the Figure-4 resource-split sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..core import CompiledProgram, compile_source
from ..core.errors import CompileError
from ..obs import trace
from ..pisa import Packet, Pipeline, RegisterBanks, TargetSpec, register_methods
from ..pisa.hashing import stacked_vector
from ..structures import (
    CountMinSketch,
    KeyValueStore,
    cms_module,
    compose,
    kv_module,
)

if TYPE_CHECKING:  # repro.runtime imports this module
    from ..runtime.migrate import MigrationReport, RegisterSnapshot

__all__ = [
    "netcache_source",
    "netcache_linked",
    "NetCacheApp",
    "NetCacheProgramError",
    "NetCacheStats",
    "serve",
    "simulate_netcache",
    "NETCACHE_UTILITY",
]

#: The paper's §3.2.4 utility: prioritize the key-value store slightly.
NETCACHE_UTILITY = "0.4 * (cms_rows * cms_cols) + 0.6 * (kv_rows * kv_cols)"


def netcache_source(
    utility: str = NETCACHE_UTILITY,
    max_cms_rows: int = 4,
    max_cols: int = 65536,
    value_slices: int = 2,
    kv_min_total_bits: int | None = None,
    with_routing: bool = True,
) -> str:
    """Compose the elastic NetCache program from library modules.

    ``kv_min_total_bits`` adds the Figure-13 memory floor
    (``assume kv_rows * kv_cols * item_bits >= ...`` — the paper reserves
    at least 8 Mb for the store, as NetCache recommends).
    """
    cms = cms_module(
        prefix="cms", key_field="meta.req_key", max_rows=max_cms_rows,
        max_cols=max_cols, seed_offset=0,
    )
    kv = kv_module(
        prefix="kv", key_field="meta.req_key", value_slices=value_slices,
        max_cols=max_cols, min_total_bits=kv_min_total_bits, seed_offset=100,
    )
    extra_decls: list[str] = []
    post_apply: list[str] = []
    if with_routing:
        extra_decls = [
            "action set_port(bit<9> port) {\n    meta.egress = port;\n}",
            (
                "table route {\n"
                "    key = {\n        meta.dst : exact;\n    }\n"
                "    actions = {\n        set_port;\n        NoAction;\n    }\n"
                "    size = 1024;\n"
                "    default_action = NoAction;\n"
                "}"
            ),
        ]
        post_apply = ["route.apply();"]
    return compose(
        modules=[kv, cms],
        extra_metadata=[
            "bit<32> req_key;",
            "bit<32> dst;",
            "bit<9> egress;",
        ],
        extra_declarations=extra_decls,
        post_apply=post_apply,
        utility=utility,
    )


def netcache_linked(
    utility: str = NETCACHE_UTILITY,
    max_cms_rows: int = 4,
    max_cols: int = 65536,
    value_slices: int = 2,
    kv_min_total_bits: int | None = None,
    with_routing: bool = True,
    cache=None,
):
    """:func:`netcache_source` as a linked program, module identity kept.

    Same modules, glue, and utility — the rendered source (and therefore
    the compiled layout) is identical — but the result is a
    :class:`~repro.link.LinkedProgram`: per-module utility terms for the
    ILP objective, a namespace for per-module attribution, and
    ``reweight()`` for one-tenant objective changes. Pass a
    :class:`~repro.core.CompileCache` to share module frontends across
    re-links.
    """
    from ..link import link_p4all_modules

    cms = cms_module(
        prefix="cms", key_field="meta.req_key", max_rows=max_cms_rows,
        max_cols=max_cols, seed_offset=0,
    )
    kv = kv_module(
        prefix="kv", key_field="meta.req_key", value_slices=value_slices,
        max_cols=max_cols, min_total_bits=kv_min_total_bits, seed_offset=100,
    )
    extra_decls: list[str] = []
    post_apply: list[str] = []
    if with_routing:
        extra_decls = [
            "action set_port(bit<9> port) {\n    meta.egress = port;\n}",
            (
                "table route {\n"
                "    key = {\n        meta.dst : exact;\n    }\n"
                "    actions = {\n        set_port;\n        NoAction;\n    }\n"
                "    size = 1024;\n"
                "    default_action = NoAction;\n"
                "}"
            ),
        ]
        post_apply = ["route.apply();"]
    return link_p4all_modules(
        [kv, cms],
        extra_metadata=[
            "bit<32> req_key;",
            "bit<32> dst;",
            "bit<9> egress;",
        ],
        extra_declarations=extra_decls,
        post_apply=post_apply,
        utility=utility,
        cache=cache,
        name="netcache",
    )


class NetCacheProgramError(Exception):
    """The compiled program is not a NetCache the app's controller can
    serve exactly (see :meth:`NetCacheApp.run_trace`)."""


@dataclass
class NetCacheStats:
    """Outcome of one trace run. ``busy_seconds`` and ``batches`` say
    what serving it cost (see :func:`serve`); they are not part of the
    outcome, so ``==`` ignores them."""

    packets: int = 0
    hits: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected_insertions: int = 0
    busy_seconds: float = field(default=0.0, compare=False)
    batches: int = field(default=0, compare=False)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.packets if self.packets else 0.0


class NetCacheApp:
    """Compiled NetCache running on the PISA pipeline simulator.

    The controller mirrors NetCache's: when an uncached key's sketch
    estimate reaches ``hot_threshold``, install it into the first KV row
    whose hashed slot is free (writing the key/value registers at the
    exact index the data plane probes).
    """

    def __init__(
        self,
        target: TargetSpec,
        hot_threshold: int = 8,
        source: str | None = None,
        compiled: CompiledProgram | None = None,
        engine: str | None = None,
        banks: RegisterBanks | None = None,
        bank: int = 0,
    ):
        """Pass ``compiled`` to load an existing artifact instead of
        compiling — the elastic runtime compiles through its planner
        (with timeout fallback) and hands the artifact in here.
        ``engine`` selects the pipeline execution engine (default:
        ``"vector"``); ``banks``/``bank`` place the
        app's registers in a bank set (see :class:`~repro.pisa.Pipeline`
        and :func:`serve`). Raises :class:`NetCacheProgramError` if the
        program is not one :meth:`run_trace` can serve."""
        self.source = source or netcache_source()
        self.compiled: CompiledProgram = compiled or compile_source(
            self.source, target, source_name="netcache"
        )
        self.pipeline = Pipeline(self.compiled, engine=engine, banks=banks,
                                 bank=bank)
        self.hot_threshold = hot_threshold
        self.kv_rows = self.compiled.symbol_values.get("kv_rows", 0)
        self.kv_cols = self.compiled.symbol_values.get("kv_cols", 0)
        self.cms_rows = self.compiled.symbol_values.get("cms_rows", 0)
        self.cms_cols = self.compiled.symbol_values.get("cms_cols", 0)
        self._cached_keys: set[int] = set()
        #: Row ``i``: the ``cms_sketch[i]`` hash of each key of an array.
        self._cms_hash = stacked_vector(
            [self.pipeline._hash_fn(row) for row in range(self.cms_rows)],
            1 << 32)
        self._cms_fields = [f"meta.cms_index[{row}]"
                            for row in range(self.cms_rows)]
        self._kv_fields = [f"meta.kv_idx[{row}]" for row in range(self.kv_rows)]
        #: The result columns :meth:`_replay` reads.
        self._fields = ["meta.kv_hit", "meta.cms_min",
                        *self._cms_fields, *self._kv_fields]
        self._check_program()
        self._key_mask = np.uint64(
            (1 << self.pipeline.phv_layout.width("meta.req_key")) - 1)
        # The registers the controller reads and writes, bound once: they
        # live as long as the pipeline (``load`` works in place).
        registers = self.pipeline.registers
        self._kv_keys = [registers.get(f"kv_keys[{row}]")
                         for row in range(self.kv_rows)]
        self._kv_vals = [registers.get(f"kv_val0[{row}]")
                         for row in range(self.kv_rows)]
        self._sketch = [registers.get(f"cms_sketch[{row}]")
                        for row in range(self.cms_rows)]
        # Every store slot's key and every sketch counter, flat: their
        # families' blocks (see RegisterFile.create_family).
        empty = np.zeros(0, dtype=np.uint64)
        self._slot_keys = (registers.block("kv_keys") if self.kv_rows
                           else empty)
        self._counts = (registers.block("cms_sketch") if self.cms_rows
                        else empty)
        # One column per row: a KV row's cell count and where its slots
        # start among the flat slots; a CMS row's cell count, where its
        # counters start among the flat ones, and (shaped for CMS row ×
        # KV row × lane) its mask.
        def column(arrays, attribute):
            return np.array([getattr(array, attribute) for array in arrays],
                            dtype=np.int64)[:, None]

        self._kv_cells = column(self._kv_keys, "cells")
        self._kv_base = column(self._kv_keys, "offset")
        self._cms_cells = column(self._sketch, "cells")
        self._cms_base = column(self._sketch, "offset")
        self._cms_size = self._counts.size
        self._cms_mask = np.array(
            [register.mask for register in self._sketch],
            dtype=np.uint64)[:, None, None]
        #: Per CMS row and flat slot: the flat counter the slot's key
        #: counts on. Every write sets its column, so the replay reads an
        #: occupant's counters without hashing it.
        self._occupants = np.zeros((self.cms_rows, self._slot_keys.size),
                                   dtype=np.int64)

    def _check_program(self) -> None:
        """The two facts :meth:`_replay` rests on: the PHV takes the
        requested key and reports hit, estimate, counted sketch cells and
        probed store slots, and the data plane never writes the store."""
        missing = [f for f in ("meta.req_key", *self._fields)
                   if f not in self.pipeline.phv_layout]
        if missing:
            raise NetCacheProgramError(
                f"the program's PHV lacks {', '.join(missing)}")
        methods = register_methods(self.pipeline)
        if methods is None:
            raise NetCacheProgramError(
                "a register reference cannot be resolved, so the data "
                "plane cannot be shown to leave the kv_* registers alone")
        written = sorted(name for name, used in methods.items()
                         if name.startswith("kv_") and used - {"read"})
        if written:
            raise NetCacheProgramError(
                f"the data plane writes {', '.join(written)}; only the "
                "controller may")

    # -- controller -------------------------------------------------------------
    def estimate(self, key: int) -> int:
        """Query the data-plane sketch registers for a key's estimate."""
        est = None
        for row, register in enumerate(self._sketch):
            idx = self.pipeline.hash_value(row, key, width=1 << 32)
            count = register.read(idx)
            est = count if est is None else min(est, count)
        return est or 0

    def _cells_of(self, keys: np.ndarray) -> np.ndarray:
        """Per CMS row and key of a ``uint64`` array: the flat counter the
        key counts on (:meth:`estimate` is the least of them)."""
        return self._cms_hash(keys) % self._cms_cells + self._cms_base

    def _slot(self, row: int, key: int) -> int:
        """Index in ``row`` of ``key``'s candidate slot."""
        return (self.pipeline.hash_value(100 + row, key, width=1 << 32)
                % self._kv_keys[row].cells)

    def _slot_key(self, row: int, key: int) -> int:
        """Key occupying ``key``'s candidate slot in ``row`` (0 = free)."""
        return self._kv_keys[row].read(self._slot(row, key))

    def _write_slot(self, row: int, key: int, value: int) -> None:
        self._write_at(row, self._slot(row, key), key, value,
                       self._cells_of(np.array([key], dtype=np.uint64))[:, 0])

    def _write_at(self, row: int, idx: int, key: int, value: int,
                  cells) -> None:
        """Store ``key`` -> ``value`` at slot ``idx`` of ``row``, with
        ``cells`` its flat counters (one per CMS row). The one writer of
        the store: it keeps ``_cached_keys`` the set of stored keys (key
        0 marks a free slot, so storing it caches nothing) and each
        slot's ``_occupants`` column its key's counters."""
        slot = int(self._kv_base[row, 0]) + idx
        self._cached_keys.discard(int(self._slot_keys[slot]))
        self._kv_keys[row].write(idx, key)
        self._kv_vals[row].write(idx, value)
        self._occupants[:, slot] = cells
        if key:
            self._cached_keys.add(key)

    def _try_cache(self, key: int, value: int, estimate: int,
                   stats: NetCacheStats) -> None:
        """NetCache promotion: take a free candidate slot, else evict the
        occupant the sketch reports coldest — if strictly colder."""
        victim_row, victim_est = None, None
        for row in range(self.kv_rows):
            occupant = self._slot_key(row, key)
            if occupant == 0:
                self._write_slot(row, key, value)
                stats.insertions += 1
                return
            occupant_est = self.estimate(occupant)
            if victim_est is None or occupant_est < victim_est:
                victim_row, victim_est = row, occupant_est
        if victim_row is not None and estimate > victim_est:
            self._write_slot(victim_row, key, value)
            stats.evictions += 1
        else:
            stats.rejected_insertions += 1

    def _stored(self, key: int) -> bool:
        """Whether a request for ``key`` hits (``meta.kv_hit``)."""
        return any(self._slot_key(row, key) == key
                   for row in range(self.kv_rows))

    def value_of(self, key: int) -> int:
        """The backing store's value for a key (synthetic: key + 7)."""
        return (key + 7) & ((1 << 64) - 1)

    # -- the app's state, as the runtime and the fabric see it -----------------
    def occupancy(self) -> dict[str, float]:
        """Fraction of cache slots holding an entry (``kv``) and of
        sketch counters touched (``cms``)."""
        def filled(block) -> float:
            return np.count_nonzero(block) / block.size if block.size else 0.0

        return {"kv": filled(self._slot_keys), "cms": filled(self._counts)}

    def cached_entries(self) -> list[tuple[int, int, int]]:
        """All cached ``(row, key, value)`` triples, read from the data
        plane's registers (the migrator's export view of the cache)."""
        entries: list[tuple[int, int, int]] = []
        for row in range(self.kv_rows):
            keys = self._kv_keys[row].dump()
            vals = self._kv_vals[row].dump()
            for idx in keys.nonzero()[0]:
                entries.append((row, int(keys[idx]), int(vals[idx])))
        return entries

    def install(self, key: int, value: int) -> bool:
        """Install ``key`` into the first row with a free candidate slot
        (control-plane insertion, no eviction). Returns success; a key
        already cached stays where it is (True)."""
        if key in self._cached_keys:
            return True
        for row in range(self.kv_rows):
            if self._slot_key(row, key) == 0:
                self._write_slot(row, key, value)
                return True
        return False

    def snapshot(self) -> tuple[RegisterSnapshot, set[int]]:
        """This app's whole state — every register and the controller's
        cached-key set — for :meth:`restore`."""
        from ..runtime.migrate import snapshot_registers

        return snapshot_registers(self.pipeline), set(self._cached_keys)

    def restore(self, state: tuple[RegisterSnapshot, set[int]]) -> None:
        """Put a :meth:`snapshot` of this app back, undoing every write
        since it was taken (the occupants' counters are re-derived from
        the restored store)."""
        from ..runtime.migrate import restore_registers

        registers, keys = state
        restore_registers(registers, self.pipeline, fold=False)
        self._cached_keys = set(keys)
        self._occupants[:] = self._cells_of(self._slot_keys)

    def migrate_to(self, dst: NetCacheApp,
                   accumulate: bool = False) -> MigrationReport:
        """Populate ``dst``'s registers from this app's state; this app
        is only read.

        The sketch is snapshotted and fold-restored onto ``dst``'s
        geometry — added onto ``dst``'s own counts with
        ``accumulate=True`` (a fabric switch absorbing a drained peer),
        replacing them otherwise — and the cached entries are re-admitted
        hottest-first by this app's estimates, the coldest dropped where
        ``dst`` has no free slot (see :mod:`repro.runtime.migrate`).
        """
        from ..runtime.migrate import (
            MigrationReport,
            readmit_by_heat,
            restore_registers,
            snapshot_registers,
        )

        report = MigrationReport()
        sketch = snapshot_registers(self.pipeline, families=("cms_sketch",))
        restored = restore_registers(sketch, dst.pipeline,
                                     families=("cms_sketch",),
                                     fold=True, accumulate=accumulate)
        report.cms_rows_migrated = restored.migrated
        report.cms_rows_dropped = restored.dropped
        report.cms_exact_fold = restored.exact
        report.cms_mass_old = restored.mass_in
        report.cms_mass_new = restored.mass_out
        if report.cms_rows_dropped:
            report.notes.append(
                f"{report.cms_rows_dropped} sketch rows dropped (fewer rows "
                "in the new layout)"
            )

        entries = self.cached_entries()
        report.kv_entries_old = len(entries)
        stored = self._slot_keys.nonzero()[0]
        heat = dict(zip(self._slot_keys[stored].tolist(),
                        self._counts[self._occupants[:, stored]]
                        .min(axis=0).tolist()))
        report.kv_migrated, report.kv_dropped = readmit_by_heat(
            ((key, value) for _row, key, value in entries),
            heat=heat.__getitem__,
            install=dst.install,
        )
        if report.kv_dropped:
            report.notes.append(
                f"{report.kv_dropped} cache entries dropped (no free candidate "
                "slot in the new layout)"
            )
        return report

    def hottest_shared_key(self, other: NetCacheApp) -> int | None:
        """The key this app's sketch rates hottest among those both apps
        cache — after :meth:`migrate_to` ``other``, the migrated key to
        :meth:`canary` there (None when no entry made it over)."""
        shared = set(self._cached_keys) & set(other._cached_keys)
        return max(shared, key=self.estimate) if shared else None

    def canary(self, key: int | None = None) -> None:
        """One packet through this (candidate) pipeline before traffic is
        cut over to it: it must process cleanly — which also exercises
        the freshly built execution plan of the configured engine — and
        ``key`` (default: a cached key, if there is one) must hit.
        Raises :class:`~repro.core.errors.CompileError` otherwise."""
        if key is None:
            key = next(iter(self._cached_keys), None)
        result = self.pipeline.process(
            Packet(fields={"req_key": 1 if key is None else key}))
        if key is not None and not result.get("meta.kv_hit"):
            raise CompileError(
                f"canary failed: migrated key {key} missed in the "
                "candidate pipeline"
            )

    # -- trace processing -------------------------------------------------------
    def run_trace(self, keys, dst: int = 1,
                  serve_batch: int | None = None) -> NetCacheStats:
        """Process a key-request trace; returns hit statistics.

        The trace runs through :meth:`Pipeline.process_columns` in
        sub-batches of ``serve_batch`` keys (default: the pipeline's
        :attr:`~repro.pisa.Pipeline.vector_chunk`) and the controller's
        promotions and evictions are replayed over each sub-batch's
        result columns. The replay is exact: statistics, registers and
        the cached-key set equal the controller reacting between every
        two packets, on every engine and for every ``serve_batch`` — a
        sub-batch size changes how fast the trace is served, never what
        it decides (see :meth:`_replay` for why).

        ``serve_batch=0`` is that per-packet reference itself:
        :meth:`Pipeline.process_many`'s callback mode, one ``Packet`` and
        one controller call per key.

        Keys are ``meta.req_key`` values: wider ones are truncated to the
        field on entry, as the parser would. This is :func:`serve` of
        this app alone.
        """
        return serve([self], [keys], serve_batch, dst)[0]

    def _request_keys(self, keys) -> np.ndarray:
        """A trace as ``meta.req_key`` values: ``uint64``, truncated to
        the field."""
        if not isinstance(keys, np.ndarray):
            keys = np.asarray(list(keys), dtype=np.uint64)
        return keys.astype(np.uint64, copy=False) & self._key_mask

    def _serve_per_packet(self, keys: list[int], dst: int,
                          stats: NetCacheStats) -> None:
        """The reference serve: the controller reacts to each packet's
        result before the next packet enters the pipeline."""
        def react(key, result):
            stats.packets += 1
            if result.get("meta.kv_hit"):
                stats.hits += 1
            else:
                estimate = result.get("meta.cms_min")
                if (estimate >= self.hot_threshold
                        and key not in self._cached_keys):
                    self._try_cache(key, self.value_of(key), estimate, stats)

        result_keys = iter(keys)
        self.pipeline.process_many(
            (Packet(fields={"req_key": key, "dst": dst}) for key in keys),
            callback=lambda result: react(next(result_keys), result),
        )

    def _replay(self, keys: np.ndarray, columns: dict,
                stats: NetCacheStats) -> None:
        """The exact replay of the per-packet controller over one
        sub-batch the pipeline already ran: ``keys`` and, per field of
        :attr:`_fields`, its result ``columns`` over the same lanes.

        Two facts about the compiled program (checked at construction)
        make that possible. The data plane only *reads* the ``kv_*``
        registers — the controller is their one writer — so running
        later packets early cannot change the store, and a controller
        write changes the ``meta.kv_hit`` of later lanes in a way the
        replay can patch: only lanes of the inserted and of the evicted
        key. And every packet increments its ``cms_sketch`` cells by one,
        unconditionally, recording the cell in ``meta.cms_index``, so a
        cell's value *as of any lane* is its value now minus the later
        lanes on it.

        The replay decides every candidate lane (a miss whose estimate
        is hot and whose key is not cached) at once, as if nothing
        before it wrote the store; that holds up to the first lane that
        does write. Lanes before it are rejections and are bulk-counted;
        that one promotion is applied; only the lanes it can affect are
        re-decided; and so on from there. A decision reads occupants'
        estimates as of the lane only where a bound cannot settle it
        (see :meth:`_victims`).
        """
        n = len(keys)
        stats.packets += n
        hit = columns["meta.kv_hit"] != 0
        estimates = columns["meta.cms_min"]
        hot = estimates >= self.hot_threshold
        # Lanes where react() promotes: a miss's key is not stored, so it
        # is not cached either (_write_at keeps the two the same set).
        live = hot & ~hit
        lanes = live.nonzero()[0]
        if not lanes.size or not self.kv_rows:
            stats.hits += int(np.count_nonzero(hit))
            stats.rejected_insertions += int(lanes.size)
            return

        # Per CMS row and lane, the flat sketch cell the lane counted on;
        # per flat cell, how many lanes of this sub-batch counted on it.
        counted = np.array([columns[name] for name in self._cms_fields],
                           dtype=np.int64)
        counted %= self._cms_cells
        counted += self._cms_base
        on_cell = np.bincount(counted.ravel(), minlength=self._cms_size)

        # Per KV row and lane: the slot the key probes (in the row, and
        # among the flat slots), and for live lanes its occupant (0 =
        # free); ``choice`` is the row a live lane writes, -1 for a
        # rejection.
        slots = np.array([columns[name] for name in self._kv_fields],
                         dtype=np.int64)
        slots %= self._kv_cells
        flat = slots + self._kv_base
        occupants = np.zeros((self.kv_rows, n), dtype=np.uint64)
        choice = np.full(n, -1, dtype=np.int64)

        def decide(at):
            """_try_cache's pick on lanes ``at``: the first free row, else
            the coldest occupant's (see _victims)."""
            held = self._slot_keys[flat[:, at]]
            occupants[:, at] = held
            free = held == 0
            choice[at] = free.argmax(axis=0)
            full = ~free.any(axis=0)
            if full.any():
                at = at[full]
                choice[at] = self._victims(flat[:, at], at, estimates[at],
                                           counted, on_cell)

        def later_lanes(key, lane):
            """Lanes after ``lane`` that request ``key``, ascending."""
            return lane + 1 + (keys[lane + 1:] == np.uint64(key)).nonzero()[0]

        decide(lanes)
        done = 0                            # lanes below are final
        while done < n:
            writes = live[done:] & (choice[done:] >= 0)
            lane = int(writes.argmax())
            if not writes[lane]:
                break
            lane += done
            stats.rejected_insertions += int(np.count_nonzero(live[done:lane]))
            done = lane + 1
            row, key = int(choice[lane]), int(keys[lane])
            evicted = int(occupants[row, lane])
            # The lane counted the key on the cells it now occupies.
            self._write_at(row, int(slots[row, lane]), key,
                           self.value_of(key), counted[:, lane])
            if evicted:
                stats.evictions += 1
            else:
                stats.insertions += 1
            # Later lanes of the two keys see the write in meta.kv_hit:
            # the key is stored now, the evicted one wherever else it is.
            mine, theirs = later_lanes(key, lane), later_lanes(evicted, lane)
            hit[mine] = True
            live[mine] = False
            if theirs.size:
                hit[theirs] = self._stored(evicted)
                live[theirs] = hot[theirs] & ~hit[theirs]
            # Re-decide what the write can change: later candidates
            # probing the written slot, and the evicted key's lanes.
            probing = done + (live[done:] & (slots[row, done:]
                                             == slots[row, lane])).nonzero()[0]
            theirs = theirs[live[theirs]]
            if theirs.size:
                probing = np.union1d(probing, theirs)
            if probing.size:
                decide(probing)
        stats.rejected_insertions += int(np.count_nonzero(live[done:]))
        stats.hits += int(np.count_nonzero(hit))

    def _victims(self, taken: np.ndarray, lanes: np.ndarray,
                 estimates: np.ndarray, counted: np.ndarray,
                 on_cell: np.ndarray) -> np.ndarray:
        """Per lane of ``lanes``, whose candidate (of estimate
        ``estimates``) finds every KV row's slot taken (``taken``: flat
        slots, KV row × lane): the row :meth:`_try_cache` evicts — the
        first coldest occupant's by the sketch as of the lane, if strictly
        colder than the candidate — or -1. An occupant's counters are
        its slot's ``_occupants`` column, read from the flat sketch.

        A bound settles most lanes as rejections. No occupant is colder
        as of any lane than before the sub-batch: per cell, the register
        now less the sub-batch's lanes on it (``on_cell``) — unless the
        counter wrapped inside the sub-batch, where the bound is 0. A
        candidate no hotter than every occupant's bound evicts nothing.
        The lanes left open read their occupants' exact estimates: the
        register now less only the lanes after the lane that counted on
        the cell (``counted``: flat cells by CMS row and lane)."""
        # CMS row × KV row × lane.
        cells = self._occupants[:, taken]
        now = self._counts[cells]
        before = on_cell[cells].astype(np.uint64)
        floor = (now - np.minimum(now, before)).min(axis=0)
        victims = np.full(taken.shape[1], -1)
        open_lanes = (estimates > floor.min(axis=0)).nonzero()[0]
        if open_lanes.size:
            later = self._later_on(counted, cells[..., open_lanes],
                                   lanes[open_lanes])
            exact = ((now[..., open_lanes] - later)
                     & self._cms_mask).min(axis=0)
            victims[open_lanes] = np.where(
                estimates[open_lanes] > exact.min(axis=0),
                exact.argmin(axis=0), -1)
        return victims

    def _later_on(self, counted: np.ndarray, cells: np.ndarray,
                  lanes: np.ndarray) -> np.ndarray:
        """Per flat cell of ``cells`` (any shape, lanes along its last
        axis): how many lanes after that lane of ``lanes`` counted on the
        cell, as ``uint64``. Sorts only the lanes that counted on one of
        ``cells``."""
        n = counted.shape[1]
        asked = np.zeros(self._cms_size, dtype=bool)
        asked[cells] = True
        on = asked[counted]
        # (cell * n + lane) of those lanes, ascending: one cell's lanes
        # sit together, in lane order.
        ordered = counted[on] * n + on.nonzero()[1]
        ordered.sort()
        start = cells * n
        later = (ordered.searchsorted(start + (n - 1), side="right")
                 - ordered.searchsorted(start + lanes, side="right"))
        return later.astype(np.uint64)


def serve(apps: list[NetCacheApp], shards: list, serve_batch: int | None = None,
          dst: int = 1) -> list[NetCacheStats]:
    """Serve each app of ``apps`` its key trace in ``shards``; returns
    each app's :class:`NetCacheStats`, exactly those of
    :meth:`NetCacheApp.run_trace` of the app alone.

    The apps are banks of one :class:`~repro.pisa.RegisterBanks` set:
    switches that run one layout. On the vector engine each round of
    sub-batches is *one* kernel call: the apps' ``j``-th sub-batches of
    ``serve_batch`` keys, concatenated in the order of ``apps``, run as
    one banked :meth:`~repro.pisa.Pipeline.process_columns` batch, and
    then each app replays its controller over its own lanes (an
    ``apps.replay`` span). That is exact because an app's lanes touch
    only its bank's registers, keep their trace order, and its replay
    reads only its own registers. ``serve_batch=0`` (the per-packet
    reference) and the scalar engines serve the apps one after another.

    Serving cost: ``batches`` counts the kernel calls, a banked call on
    the first app; ``busy_seconds`` is each app's share of every kernel
    call it rode, by lanes, plus its own replays.
    """
    if serve_batch is not None and serve_batch < 0:
        raise ValueError(f"serve_batch must be >= 0, got {serve_batch}")
    stats = [NetCacheStats() for _ in apps]
    if not apps:
        return stats
    members = [(app, app._request_keys(keys), stat)
               for app, keys, stat in zip(apps, shards, stats)]
    pipeline = apps[0].pipeline
    if serve_batch == 0:
        for app, keys, stat in members:
            started = time.perf_counter()
            app._serve_per_packet(keys.tolist(), dst, stat)
            stat.busy_seconds = time.perf_counter() - started
            stat.batches = 1
        return stats
    step = serve_batch or pipeline.vector_chunk
    if pipeline.vplan is not None and pipeline.vplan.ok:
        if len(apps) > 1 and any(app.pipeline.banks is not pipeline.banks
                                 for app in apps):
            raise ValueError("serve: the apps are not banks of one set")
        _serve_rounds(members, step, dst)
    else:
        for member in members:
            _serve_rounds([member], step, dst)
    return stats


def _serve_rounds(members: list, step: int, dst: int) -> None:
    """:func:`serve`'s rounds of sub-batches for ``(app, keys, stats)``
    ``members``: one kernel call each, then every member's replay."""
    lead, longest, lead_stats = members[0]
    alone = len(members) == 1
    if not alone:
        banks = [app.pipeline.bank for app, _keys, _stat in members]
        # The longest trace sets the number of rounds.
        longest = max((keys for _app, keys, _stat in members), key=len)
    for start in range(0, len(longest), step):
        parts = [keys[start:start + step] for _app, keys, _stat in members]
        if alone:
            batch, bank = parts[0], None
        else:
            batch = np.concatenate(parts)
            bank = np.repeat(banks, [len(part) for part in parts])
        started = time.perf_counter()
        results = lead.pipeline.process_columns(
            {"req_key": batch, "dst": dst}, bank=bank)
        at = time.perf_counter()
        lead_stats.batches += 1
        per_lane = (at - started) / len(batch)
        columns = {name: results.column(name) for name in lead._fields}
        lo = 0
        for (app, _keys, stat), part in zip(members, parts):
            hi = lo + len(part)
            if hi == lo:
                continue
            with trace.span("apps.replay", bank=app.pipeline.bank,
                            lanes=hi - lo):
                app._replay(part, columns if alone else {
                    name: column[lo:hi] for name, column in columns.items()},
                    stat)
            now = time.perf_counter()
            stat.busy_seconds += per_lane * (hi - lo) + (now - at)
            at, lo = now, hi


def simulate_netcache(
    cms_rows: int,
    cms_cols: int,
    kv_rows: int,
    kv_cols: int,
    keys,
    hot_threshold: int = 8,
    value_slices: int = 2,
) -> NetCacheStats:
    """NetCache control loop over the reference structures (fast path).

    Runs the same promote-on-threshold policy as :class:`NetCacheApp`,
    but with the numpy reference sketch and store — used for the Figure-4
    sweep where hundreds of configurations are evaluated. Degenerate
    configurations (zero-size structures) short-circuit to a 0% hit rate.
    """
    stats = NetCacheStats()
    if cms_rows <= 0 or cms_cols <= 0 or kv_rows <= 0 or kv_cols <= 0:
        stats.packets = len(list(keys))
        return stats
    sketch = CountMinSketch(cms_rows, cms_cols, seed_offset=0)
    store = KeyValueStore(kv_rows, kv_cols, value_slices=value_slices,
                          seed_offset=100)
    for key in keys:
        key = int(key)
        stats.packets += 1
        # The sketch counts every packet (as the data plane does — the
        # CMS stage runs unconditionally in the compiled pipeline).
        estimate = sketch.update(key)
        if store.lookup(key) is not None:
            stats.hits += 1
            continue
        if estimate < hot_threshold:
            continue
        value = (key + 7) & ((1 << 64) - 1)
        if store.insert(key, value):
            stats.insertions += 1
            continue
        # Every candidate slot is taken: evict the occupant the sketch
        # reports coldest, if strictly colder than the new key (the
        # NetCache controller's report-driven replacement).
        victim_row, victim_est = None, None
        for row in range(store.rows):
            occupant = store.occupant(row, key)
            occupant_est = sketch.estimate(occupant) if occupant else 0
            if victim_est is None or occupant_est < victim_est:
                victim_row, victim_est = row, occupant_est
        if victim_row is not None and estimate > victim_est:
            store.replace(victim_row, key, value)
            stats.evictions += 1
        else:
            stats.rejected_insertions += 1
    return stats
