"""Compilation phase caches for fast elastic recompilation.

The elastic runtime recompiles the *same* program again and again —
only the target geometry (a memory cut, a stage change) or the utility
varies between triggers. A cold compile re-runs every phase of
Figure 8, yet the front-end artifacts (parse/AST, semantic info, IR)
depend only on the source text, and the unroll bounds only on
(source, target, unroll options). :class:`CompileCache` memoizes those
phases, plus the *full* compile result, so that:

* a recompile with only a changed :class:`~repro.pisa.resources.TargetSpec`
  skips parsing, semantic checking, and IR construction entirely
  (bounds are recomputed — they depend on the target — but that is the
  cheap tail of the front end);
* a recompile with nothing changed returns the previous
  :class:`~repro.core.program.CompiledProgram` outright (compiled
  programs are immutable once assembled — pipelines built from them
  hold their own register state — so sharing is safe).

Keys are content hashes of the source plus the frozen option/target
dataclasses, never object identities, so two textually identical
programs share cache entries. Hit/miss counters are kept per tier and
can be exported on the runtime telemetry bus
(:meth:`CompileCache.emit`); the :class:`~repro.runtime.planner.ReconfigPlanner`
does this after every planning cycle.

The cache is deliberately *not* a global: callers opt in through
``CompileOptions(cache=...)`` (the planner installs one by default), so
batch compiles and tests keep their cold-path semantics unless they ask
otherwise.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..analysis import compute_upper_bounds
from ..analysis.unroll import UnrollBounds, UnrollOptions
from ..obs import metrics as obs_metrics
from ..pisa.resources import TargetSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .driver import CompileOptions
    from .program import CompiledProgram

__all__ = ["CompileCache", "CacheStats", "source_fingerprint"]


def source_fingerprint(source: str) -> str:
    """Stable content hash of a program's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _count_request(tier: str, hit: bool) -> None:
    """Mirror one cache lookup onto the global metrics registry (the
    per-instance :class:`CacheStats` counters stay authoritative for
    telemetry; this feeds the Prometheus export)."""
    obs_metrics.counter(
        "p4all_cache_requests_total",
        help="CompileCache lookups, by tier and outcome.",
        labels=("tier", "outcome"),
    ).inc(tier=tier, outcome="hit" if hit else "miss")


@dataclass
class CacheStats:
    """Hit/miss counters per cache tier (monotone; never reset by
    eviction or invalidation, so rates stay meaningful over a run)."""

    frontend_hits: int = 0
    frontend_misses: int = 0
    module_hits: int = 0
    module_misses: int = 0
    bounds_hits: int = 0
    bounds_misses: int = 0
    layout_hits: int = 0
    layout_misses: int = 0
    verify_hits: int = 0
    verify_misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "frontend_hits": self.frontend_hits,
            "frontend_misses": self.frontend_misses,
            "module_hits": self.module_hits,
            "module_misses": self.module_misses,
            "bounds_hits": self.bounds_hits,
            "bounds_misses": self.bounds_misses,
            "layout_hits": self.layout_hits,
            "layout_misses": self.layout_misses,
            "verify_hits": self.verify_hits,
            "verify_misses": self.verify_misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }

    @property
    def total_hits(self) -> int:
        return self.frontend_hits + self.bounds_hits + self.layout_hits


class CompileCache:
    """Memoizes compilation phases across recompiles.

    Four tiers, from cheapest to most complete:

    ========  ==========================================  =====================
    tier      holds                                       keyed by
    ========  ==========================================  =====================
    frontend  AST + semantic info + IR                    (source hash, entry)
    bounds    loop-unroll upper bounds                    + (target, unroll opts)
    verify    taint/isolation verification result         + chosen symbol values
    layout    the full ILP ``CompiledProgram``            + (time limit,
                                                          layout opts)
    ========  ==========================================  =====================

    A greedy compile (``compile_*_greedy``) shares the first three tiers
    but never reads or writes the layout tier: its key has no room for
    the solver, and a first fit must not answer an ILP compile.

    The layout tier is LRU-bounded by ``max_layouts`` (``0`` disables it
    entirely — useful for benchmarks that want front-end reuse but fresh
    solves). All operations are thread-safe. The fleet controller plans
    its switches one after another through one planner and this cache,
    so every switch after the first with the same target is a
    layout-tier hit.
    """

    def __init__(self, max_layouts: int = 64):
        self.max_layouts = max_layouts
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._frontend: dict[tuple, Any] = {}
        self._modules: dict[str, Any] = {}
        self._bounds: dict[tuple, UnrollBounds] = {}
        self._layouts: OrderedDict[tuple, "CompiledProgram"] = OrderedDict()
        self._verify: dict[tuple, Any] = {}

    def _memo(self, tier: str, store: dict, key, build):
        """``(value, hit)``: ``store[key]``, or ``build()`` stored there.
        ``build`` runs outside the lock (a solve-sized wait would stall
        every other tier); two threads missing one key both build."""
        with self._lock:
            cached = store.get(key)
        hit = cached is not None
        counter = f"{tier}_{'hits' if hit else 'misses'}"
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        _count_request(tier, hit)
        if hit:
            return cached, True
        value = build()
        with self._lock:
            store[key] = value
        return value, False

    # -- phase 1-2: parse + check + IR -------------------------------------------
    def frontend(self, key_text: str, entry: str, build):
        """Return ``(artifacts, hit)`` for one program's front end.

        ``key_text`` is the source itself, or the ``"linked:" +
        fingerprint`` pseudo-source of a linked program, so the bounds,
        verify and layout tiers (and ``invalidate``) key the same text.
        ``build`` runs parse → check → IR on a miss; what it returns is
        stored as is.
        """
        key = (source_fingerprint(key_text), entry)
        return self._memo("frontend", self._frontend, key, build)

    # -- per-module frontend tier -------------------------------------------------
    def module(self, key_text: str, build):
        """Return ``(value, hit)`` for one module's frontend artifact.

        The linker keys each module by its fragment text, so editing one
        tenant's module only re-runs ``build`` (parse + extract) for that
        module; every other module of the linked program is a hit.
        """
        key = source_fingerprint(key_text)
        return self._memo("module", self._modules, key, build)

    # -- phase 3: unroll bounds ----------------------------------------------------
    def bounds(
        self,
        source: str,
        entry: str,
        ir,
        target: TargetSpec,
        options: UnrollOptions,
    ) -> tuple[UnrollBounds, bool]:
        """Return ``(bounds, hit)``; bounds depend on the target too."""
        key = (source_fingerprint(source), entry, target, options)
        return self._memo(
            "bounds", self._bounds, key,
            lambda: compute_upper_bounds(ir, target, options))

    # -- full-result layout tier ---------------------------------------------------
    def _layout_key(self, source: str, target: TargetSpec,
                    options: "CompileOptions") -> tuple:
        return (
            source_fingerprint(source),
            options.entry,
            target,
            options.time_limit,
            options.layout,
            options.unroll,
        )

    def get_layout(self, source: str, target: TargetSpec,
                   options: "CompileOptions") -> "CompiledProgram | None":
        if self.max_layouts <= 0:
            return None
        key = self._layout_key(source, target, options)
        with self._lock:
            compiled = self._layouts.get(key)
            if compiled is not None:
                self._layouts.move_to_end(key)
        if compiled is None:
            self.stats.layout_misses += 1
            _count_request("layout", False)
            return None
        self.stats.layout_hits += 1
        _count_request("layout", True)
        return compiled

    def put_layout(self, source: str, target: TargetSpec,
                   options: "CompileOptions", compiled: "CompiledProgram") -> None:
        if self.max_layouts <= 0:
            return
        key = self._layout_key(source, target, options)
        with self._lock:
            self._layouts[key] = compiled
            self._layouts.move_to_end(key)
            while len(self._layouts) > self.max_layouts:
                self._layouts.popitem(last=False)
                self.stats.evictions += 1
                obs_metrics.counter(
                    "p4all_cache_evictions_total",
                    help="Layout-tier LRU evictions.",
                ).inc()

    # -- verification tier -----------------------------------------------------------
    def verify(self, source: str, entry: str, target: TargetSpec,
               symbol_values: dict, build):
        """Return ``(verify_result, hit)`` for one compiled artifact.

        Taint verification depends only on the program text, the entry
        point, and the chosen symbolic values (the unroll depth fixes
        which instances exist) — the target matters only through those
        values, but it is part of the key so invalidation stays simple
        and a target change can never alias. Warm recompiles of an
        unchanged program therefore skip re-verification entirely.
        """
        key = (
            source_fingerprint(source),
            entry,
            target,
            tuple(sorted(symbol_values.items())),
        )
        return self._memo("verify", self._verify, key, build)

    # -- invalidation --------------------------------------------------------------
    def invalidate(self, source: str | None = None) -> int:
        """Drop cached artifacts; returns the number of entries removed.

        With ``source`` given, only entries derived from that text are
        dropped (the operator edited one program); with ``None``,
        everything goes.
        """
        with self._lock:
            if source is None:
                removed = (len(self._frontend) + len(self._modules)
                           + len(self._bounds) + len(self._layouts)
                           + len(self._verify))
                self._frontend.clear()
                self._modules.clear()
                self._bounds.clear()
                self._layouts.clear()
                self._verify.clear()
            else:
                fp = source_fingerprint(source)
                removed = 0
                for store in (self._frontend, self._bounds, self._layouts,
                              self._verify):
                    stale = [k for k in store if k[0] == fp]
                    for k in stale:
                        del store[k]
                    removed += len(stale)
        if removed:
            self.stats.invalidations += 1
            obs_metrics.counter(
                "p4all_cache_invalidations_total",
                help="Explicit CompileCache invalidations that removed entries.",
            ).inc()
        return removed

    def clear(self) -> int:
        """Alias for full invalidation."""
        return self.invalidate()

    # -- introspection ---------------------------------------------------------------
    def snapshot(self) -> dict[str, int]:
        """Counters plus current sizes, as one flat JSON-friendly dict."""
        out = self.stats.to_dict()
        with self._lock:
            out["frontend_entries"] = len(self._frontend)
            out["module_entries"] = len(self._modules)
            out["bounds_entries"] = len(self._bounds)
            out["layout_entries"] = len(self._layouts)
            out["verify_entries"] = len(self._verify)
        return out

    def emit(self, telemetry, **extra) -> None:
        """Export the counters as a ``compile_cache`` telemetry event."""
        telemetry.emit("compile_cache", **self.snapshot(), **extra)

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"CompileCache(frontend {s.frontend_hits}h/{s.frontend_misses}m, "
            f"module {s.module_hits}h/{s.module_misses}m, "
            f"bounds {s.bounds_hits}h/{s.bounds_misses}m, "
            f"layout {s.layout_hits}h/{s.layout_misses}m, "
            f"verify {s.verify_hits}h/{s.verify_misses}m)"
        )
