"""Per-module compile-cache behavior: editing one module re-parses only
that module, and re-weighting touches no module frontend at all."""

import pytest

from repro.apps.netcache import netcache_linked
from repro.core import CompileCache, compile_linked

from .conftest import COUNTER_SOURCE, MARKER_SOURCE


def _pair(ctr_source=COUNTER_SOURCE):
    return [("ctr", ctr_source), ("mark", MARKER_SOURCE)]


class TestModuleTier:
    def test_initial_link_misses_every_module(self):
        from repro.link import link_files

        cache = CompileCache()
        link_files(_pair(), cache=cache)
        assert cache.stats.module_misses == 2
        assert cache.stats.module_hits == 0

    def test_relink_hits_every_module(self):
        from repro.link import link_files

        cache = CompileCache()
        link_files(_pair(), cache=cache)
        link_files(_pair(), cache=cache)
        assert cache.stats.module_misses == 2
        assert cache.stats.module_hits == 2

    def test_editing_one_module_reparses_only_it(self):
        from repro.link import link_files

        cache = CompileCache()
        link_files(_pair(), cache=cache)
        before_hits = cache.stats.module_hits
        before_misses = cache.stats.module_misses

        edited = COUNTER_SOURCE.replace("[1024]", "[2048]")
        assert edited != COUNTER_SOURCE
        link_files(_pair(ctr_source=edited), cache=cache)
        # Exactly one re-parse (the edited module); the other is a hit.
        assert cache.stats.module_misses == before_misses + 1
        assert cache.stats.module_hits == before_hits + 1

    def test_linked_frontend_tier(self, runtime_target):
        cache = CompileCache()
        linked = netcache_linked(with_routing=False, cache=cache)
        from repro.core import CompileOptions

        options = CompileOptions(cache=cache)
        first = compile_linked(linked, runtime_target, options=options)
        assert not first.stats.frontend_cached

        # Identical (program, target, options): the whole artifact is
        # served from the layout tier.
        repeat = compile_linked(linked, runtime_target, options=options)
        assert repeat.stats.layout_cached
        assert repeat.symbol_values == first.symbol_values
        # ... under its own seconds: the two lookups, no solve.
        assert repeat.stats.ilp_solve_seconds == 0
        assert repeat.stats.verify_cached
        assert repeat.stats.total_seconds == pytest.approx(
            repeat.stats.lookup_seconds + repeat.stats.verify_seconds)
        assert first.stats.ilp_solve_seconds > 0   # the original's kept

        # New target: the layout re-solves but the linked frontend
        # (semantic check + IR) is a cache hit.
        import dataclasses

        cut = dataclasses.replace(
            runtime_target,
            memory_bits_per_stage=runtime_target.memory_bits_per_stage // 2,
        )
        shrunk = compile_linked(linked, cut, options=options)
        assert shrunk.stats.frontend_cached
        assert not shrunk.stats.layout_cached

    def test_verify_tier_answers_warm_recompiles(self, runtime_target):
        """Taint verification runs once; an unchanged program's warm
        recompile serves the VerifyResult from the cache's verify tier."""
        from repro.core import CompileOptions

        cache = CompileCache()
        linked = netcache_linked(with_routing=False, cache=cache)
        options = CompileOptions(cache=cache)

        first = compile_linked(linked, runtime_target, options=options)
        assert first.verify is not None and first.verify.clean
        assert not first.stats.verify_cached
        assert cache.stats.verify_misses == 1

        warm = compile_linked(linked, runtime_target, options=options)
        assert warm.stats.verify_cached
        assert cache.stats.verify_hits >= 1
        assert warm.verify.flows == first.verify.flows
        # The verify tier shows up in the cache's bookkeeping too.
        snap = cache.snapshot()
        assert snap["verify_entries"] >= 1
        assert "verify" in repr(cache)


class TestReweight:
    def test_reweight_never_reparses_modules(self):
        cache = CompileCache()
        linked = netcache_linked(with_routing=False, cache=cache)
        baseline_misses = cache.stats.module_misses

        re1 = linked.reweight({"kv": 2.0, "cms": 1.0}, cache=cache)
        # The kv and cms frontends are cache hits; only the (tiny) glue
        # fragment may re-parse, because the objective moved out of it.
        module_misses = cache.stats.module_misses - baseline_misses
        assert module_misses <= 1
        assert cache.stats.module_hits >= 2
        assert [(m, w) for m, w, _ in re1.utility_terms] == [
            ("kv", 2.0), ("cms", 1.0)
        ]

        # A second re-weighting is fully cached.
        misses_before = cache.stats.module_misses
        re2 = re1.reweight({"kv": 1.0, "cms": 3.0}, cache=cache)
        assert cache.stats.module_misses == misses_before
        assert [(m, w) for m, w, _ in re2.utility_terms] == [
            ("kv", 1.0), ("cms", 3.0)
        ]

    def test_reweight_changes_solution_priorities(self, runtime_target):
        cache = CompileCache()
        from repro.core import CompileOptions

        options = CompileOptions(cache=cache)
        linked = netcache_linked(with_routing=False, cache=cache)
        base = compile_linked(linked, runtime_target, options=options)

        # Crank kv's weight: its weighted share must not shrink.
        heavier = linked.reweight({"kv": 50.0, "cms": 1.0}, cache=cache)
        tilted = compile_linked(heavier, runtime_target, options=options)
        assert tilted.solution.utility_breakdown["kv"] >= (
            base.solution.utility_breakdown.get("kv", 0.0)
        )
        assert heavier.fingerprint != linked.fingerprint
