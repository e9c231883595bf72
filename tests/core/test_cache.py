"""CompileCache correctness: tiered hits, misses, LRU.

The cache key structure is the contract under test: a byte-identical
(source, target, options) recompile hits the layout tier outright; a
target change falls back to the front-end tiers (parse/IR reuse, bounds
and ILP re-run); any source-text change — including an edited utility,
which lives in the source — misses everything.
"""

import dataclasses

import pytest

from repro.core import (
    CompileCache,
    CompileOptions,
    compile_source,
    source_fingerprint,
)
from repro.pisa import small_target
from repro.runtime import TelemetryBus
from repro.structures import CMS_SOURCE


@pytest.fixture()
def cache():
    return CompileCache()


@pytest.fixture()
def target():
    return small_target(stages=8, memory_kb=64)


def _compile(source, target, cache, **opts):
    return compile_source(
        source, target,
        options=CompileOptions(cache=cache, **opts),
        source_name="cms",
    )


class TestLayoutTier:
    def test_identical_recompile_hits(self, cache, target):
        cold = _compile(CMS_SOURCE, target, cache)
        warm = _compile(CMS_SOURCE, target, cache)
        assert warm.stats.layout_cached
        assert not cold.stats.layout_cached   # original stats not mutated
        assert warm.symbol_values == cold.symbol_values
        assert warm.p4_source == cold.p4_source
        assert cache.stats.layout_hits == 1
        assert cache.stats.layout_misses == 1

    def test_hit_reports_its_own_seconds(self, cache, target):
        # A hit ran no phase: its stats are the lookup, never a replay
        # of the timings of the compile that filled the cache.
        from repro import obs

        cold = _compile(CMS_SOURCE, target, cache)
        obs.metrics.reset()
        warm = _compile(CMS_SOURCE, target, cache)
        assert cold.stats.ilp_solve_seconds > 0
        assert cold.stats.lookup_seconds == 0
        hit = warm.stats
        assert hit.layout_cached
        assert hit.lookup_seconds > 0
        assert hit.total_seconds == hit.lookup_seconds
        assert (hit.parse_seconds, hit.ir_seconds, hit.bounds_seconds,
                hit.ilp_build_seconds, hit.ilp_solve_seconds,
                hit.codegen_seconds, hit.verify_seconds) == (0,) * 7
        assert hit.total_seconds < cold.stats.ilp_solve_seconds
        assert (hit.ilp_variables, hit.ilp_constraints) == (
            cold.stats.ilp_variables, cold.stats.ilp_constraints)
        # The phase histogram saw the lookup, not a second solve.
        phases = obs.metrics.get("p4all_compile_phase_seconds")
        assert phases.snapshot(phase="layout_lookup")["count"] == 1
        assert phases.snapshot(phase="ilp_solve")["count"] == 0

    def test_target_change_misses_layout_hits_frontend(self, cache, target):
        _compile(CMS_SOURCE, target, cache)
        smaller = dataclasses.replace(
            target, memory_bits_per_stage=target.memory_bits_per_stage // 2
        )
        cut = _compile(CMS_SOURCE, smaller, cache)
        assert not cut.stats.layout_cached
        assert cut.stats.frontend_cached       # parse/IR reused
        assert not cut.stats.bounds_cached     # bounds depend on the target
        assert cache.stats.layout_hits == 0
        assert cache.stats.frontend_hits == 1

    def test_source_change_misses_everything(self, cache, target):
        _compile(CMS_SOURCE, target, cache)
        # The utility lives in the source text, so editing it is a
        # source change — a different fingerprint, nothing reused.
        edited = CMS_SOURCE.replace(
            "optimize cms_rows * cms_cols;", "optimize cms_cols;"
        )
        assert edited != CMS_SOURCE
        assert source_fingerprint(edited) != source_fingerprint(CMS_SOURCE)
        other = _compile(edited, target, cache)
        assert not other.stats.layout_cached
        assert not other.stats.frontend_cached
        assert cache.stats.frontend_hits == 0
        assert cache.stats.layout_hits == 0

    def test_solver_options_are_part_of_the_key(self, cache, target):
        _compile(CMS_SOURCE, target, cache)
        limited = _compile(CMS_SOURCE, target, cache, time_limit=30.0)
        assert not limited.stats.layout_cached  # different time limit
        assert limited.stats.frontend_cached
        again = _compile(CMS_SOURCE, target, cache, time_limit=30.0)
        assert again.stats.layout_cached


class TestCapacity:
    def test_lru_eviction(self, target, monkeypatch):
        monkeypatch.setattr("repro.core.cache.MAX_LAYOUTS", 1)
        cache = CompileCache()
        smaller = dataclasses.replace(
            target, memory_bits_per_stage=target.memory_bits_per_stage // 2
        )
        _compile(CMS_SOURCE, target, cache)
        _compile(CMS_SOURCE, smaller, cache)   # evicts the first layout
        assert cache.stats.evictions == 1
        assert cache.snapshot()["layout_entries"] == 1
        refetch = _compile(CMS_SOURCE, smaller, cache)
        assert refetch.stats.layout_cached     # the survivor is the MRU


class TestTelemetry:
    def test_emit_exports_counters(self, cache, target):
        _compile(CMS_SOURCE, target, cache)
        _compile(CMS_SOURCE, target, cache)
        bus = TelemetryBus()
        cache.emit(bus, cause="test")
        events = bus.events_of("compile_cache")
        assert len(events) == 1
        assert events[0].data["layout_hits"] == 1
        assert events[0].data["cause"] == "test"
