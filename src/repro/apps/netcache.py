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

from dataclasses import dataclass, field

import numpy as np

from ..core import CompileOptions, CompiledProgram, compile_source
from ..pisa import Packet, Pipeline, TargetSpec
from ..structures import (
    CountMinSketch,
    KeyValueStore,
    cms_module,
    compose,
    kv_module,
)

__all__ = [
    "netcache_source",
    "netcache_linked",
    "NetCacheApp",
    "NetCacheStats",
    "simulate_netcache",
    "NETCACHE_UTILITY",
    "NETCACHE_UTILITY_FLIPPED",
]

#: The paper's §3.2.4 utility: prioritize the key-value store slightly.
NETCACHE_UTILITY = "0.4 * (cms_rows * cms_cols) + 0.6 * (kv_rows * kv_cols)"
#: Figure 13's alternative: prioritize the sketch instead.
NETCACHE_UTILITY_FLIPPED = "0.6 * (cms_rows * cms_cols) + 0.4 * (kv_rows * kv_cols)"


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


@dataclass
class NetCacheStats:
    """Outcome of one trace run."""

    packets: int = 0
    hits: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected_insertions: int = 0
    history: list[float] = field(default_factory=list)

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
        utility: str = NETCACHE_UTILITY,
        hot_threshold: int = 8,
        options: CompileOptions | None = None,
        kv_min_total_bits: int | None = None,
        source: str | None = None,
        compiled: CompiledProgram | None = None,
        engine: str | None = None,
    ):
        """Pass ``compiled`` to load an existing artifact instead of
        compiling — the elastic runtime compiles through its planner
        (with timeout fallback) and hands the artifact in here.
        ``engine`` selects the pipeline execution engine (default: the
        compiled plan engine; see :func:`repro.pisa.default_engine`)."""
        self.source = source or netcache_source(
            utility=utility, kv_min_total_bits=kv_min_total_bits
        )
        self.compiled: CompiledProgram = compiled or compile_source(
            self.source, target, options=options, source_name="netcache"
        )
        self.pipeline = Pipeline(self.compiled, engine=engine)
        self.hot_threshold = hot_threshold
        self.kv_rows = self.compiled.symbol_values.get("kv_rows", 0)
        self.kv_cols = self.compiled.symbol_values.get("kv_cols", 0)
        self.cms_rows = self.compiled.symbol_values.get("cms_rows", 0)
        self.cms_cols = self.compiled.symbol_values.get("cms_cols", 0)
        self._cached_keys: set[int] = set()

    # -- controller -------------------------------------------------------------
    def _cms_estimate(self, key: int) -> int:
        """Query the data-plane sketch registers for a key's estimate."""
        est = None
        for row in range(self.cms_rows):
            idx = self.pipeline.hash_value(row, key, width=1 << 32)
            count = int(self.pipeline.registers.get(f"cms_sketch[{row}]").read(idx))
            est = count if est is None else min(est, count)
        return est or 0

    def _slot_key(self, row: int, key: int) -> int:
        """Key occupying ``key``'s candidate slot in ``row`` (0 = free)."""
        idx = self.pipeline.hash_value(100 + row, key, width=1 << 32)
        return int(self.pipeline.registers.get(f"kv_keys[{row}]").read(idx))

    def _write_slot(self, row: int, key: int, value: int) -> None:
        idx = self.pipeline.hash_value(100 + row, key, width=1 << 32)
        self.pipeline.registers.get(f"kv_keys[{row}]").write(idx, key)
        self.pipeline.registers.get(f"kv_val0[{row}]").write(idx, value)

    def _try_cache(self, key: int, value: int, estimate: int,
                   stats: NetCacheStats) -> None:
        """NetCache promotion: take a free candidate slot, else evict the
        occupant the sketch reports coldest — if strictly colder."""
        victim_row, victim_est = None, None
        for row in range(self.kv_rows):
            occupant = self._slot_key(row, key)
            if occupant == 0:
                self._write_slot(row, key, value)
                self._cached_keys.add(key)
                stats.insertions += 1
                return
            occupant_est = self._cms_estimate(occupant)
            if victim_est is None or occupant_est < victim_est:
                victim_row, victim_est = row, occupant_est
        if victim_row is not None and estimate > victim_est:
            evicted = self._slot_key(victim_row, key)
            self._cached_keys.discard(evicted)
            self._write_slot(victim_row, key, value)
            self._cached_keys.add(key)
            stats.evictions += 1
        else:
            stats.rejected_insertions += 1

    def value_of(self, key: int) -> int:
        """The backing store's value for a key (synthetic: key + 7)."""
        return (key + 7) & ((1 << 64) - 1)

    # -- control-plane introspection (used by the elastic runtime) --------------
    @property
    def cache_capacity(self) -> int:
        return self.kv_rows * self.kv_cols

    def kv_occupancy(self) -> float:
        """Fraction of key slots holding a cached entry."""
        occupied = sum(
            self.pipeline.registers.get(f"kv_keys[{row}]").nonzero_cells()
            for row in range(self.kv_rows)
        )
        return occupied / self.cache_capacity if self.cache_capacity else 0.0

    def cached_entries(self) -> list[tuple[int, int, int]]:
        """All cached ``(row, key, value)`` triples, read from the data
        plane's registers (the migrator's export view of the cache)."""
        entries: list[tuple[int, int, int]] = []
        for row in range(self.kv_rows):
            keys = self.pipeline.registers.get(f"kv_keys[{row}]").dump()
            vals = self.pipeline.registers.get(f"kv_val0[{row}]").dump()
            for idx in keys.nonzero()[0]:
                entries.append((row, int(keys[idx]), int(vals[idx])))
        return entries

    def install(self, key: int, value: int) -> bool:
        """Install ``key`` into the first row with a free candidate slot
        (control-plane insertion, no eviction). Returns success."""
        for row in range(self.kv_rows):
            if self._slot_key(row, key) == 0:
                self._write_slot(row, key, value)
                self._cached_keys.add(key)
                return True
        return False

    # -- trace processing -------------------------------------------------------
    def run_trace(self, keys, dst: int = 1, serve_batch: int | None = None,
                  workers: int | None = None) -> NetCacheStats:
        """Process a key-request trace; returns hit statistics.

        With ``serve_batch`` unset (the default), streams through
        :meth:`Pipeline.process_many`'s callback mode: the controller
        reacts to each result (promotion, eviction) between packets
        without a result list ever being built — identical across all
        engines.

        With ``serve_batch > 0``, the trace is served in sub-batches of
        that size: each sub-batch runs through the batched fast path
        (vector kernels, and sharded across ``workers`` processes when
        ``workers > 1``), then the controller scans the batch's result
        columns before the next one is admitted. Promotions therefore
        lag by up to one sub-batch relative to the streaming mode — the
        trade the fleet makes for batch throughput.
        """
        from ..pisa.pipeline import default_serve_batch, default_workers

        if serve_batch is None:
            serve_batch = default_serve_batch()
        if workers is None:
            workers = default_workers()
        stats = NetCacheStats()
        key_list = [int(key) for key in keys]

        def react(key, result):
            stats.packets += 1
            if result.get("meta.kv_hit"):
                stats.hits += 1
            else:
                estimate = result.get("meta.cms_min")
                if estimate >= self.hot_threshold and key not in self._cached_keys:
                    self._try_cache(key, self.value_of(key), estimate, stats)

        if not serve_batch:
            result_keys = iter(key_list)
            self.pipeline.process_many(
                (Packet(fields={"req_key": key, "dst": dst}) for key in key_list),
                callback=lambda result: react(next(result_keys), result),
            )
            return stats

        # The same decisions as ``react``, read off whole columns: count
        # the hits, then visit only the missed lanes whose estimate is
        # hot, in lane order, checking ``_cached_keys`` live (an earlier
        # lane of this batch may just have promoted the key).
        step = int(serve_batch)
        for start in range(0, len(key_list), step):
            batch_keys = key_list[start:start + step]
            results = self.pipeline.process_many(
                [Packet(fields={"req_key": key, "dst": dst})
                 for key in batch_keys],
                workers=workers,
                shard_field="req_key",
            )
            stats.packets += len(batch_keys)
            hit = results.column("meta.kv_hit") != 0
            stats.hits += int(np.count_nonzero(hit))
            estimates = results.column("meta.cms_min")
            lanes = np.nonzero(~hit & (estimates >= self.hot_threshold))[0]
            for lane, estimate in zip(lanes.tolist(),
                                      estimates[lanes].tolist()):
                key = batch_keys[lane]
                if key not in self._cached_keys:
                    self._try_cache(key, self.value_of(key), estimate, stats)
        return stats


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
