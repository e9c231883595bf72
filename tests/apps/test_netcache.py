"""NetCache application tests."""

import pytest

from repro.apps import NetCacheApp, netcache_source, simulate_netcache
from repro.lang import check_program, parse_program
from repro.workloads import ZipfGenerator


class TestSource:
    def test_parses_and_checks(self):
        info = check_program(parse_program(netcache_source()))
        assert {"cms_rows", "cms_cols", "kv_rows", "kv_cols"} <= set(info.symbolics)
        assert "route" in info.tables

    def test_kv_floor_assume_rendered(self):
        source = netcache_source(kv_min_total_bits=8 * (1 << 20))
        assert "assume kv_rows * kv_cols * 160 >= 8388608;" in source

    def test_no_routing_variant(self):
        source = netcache_source(with_routing=False)
        assert "table route" not in source


@pytest.fixture(scope="module")
def app(mini_tofino):
    return NetCacheApp(mini_tofino, hot_threshold=4)


class TestCompiledApp:
    def test_both_structures_placed(self, app):
        assert app.cms_rows >= 1 and app.cms_cols > 0
        assert app.kv_rows >= 1 and app.kv_cols > 0

    def test_hot_keys_end_up_cached(self, app):
        gen = ZipfGenerator(2000, alpha=1.2, seed=31)
        stats = app.run_trace(gen.sample(4000))
        assert stats.insertions > 0
        assert stats.hits > 0
        # The hottest key must be cached by the end of a skewed trace.
        hottest = int(gen.hottest(1)[0])
        assert hottest in app._cached_keys

    def test_hit_rate_beats_no_cache_baseline(self, app):
        # Continuing the same app; hit rate over a fresh skewed trace
        # with a warm cache must be clearly positive.
        gen = ZipfGenerator(2000, alpha=1.2, seed=32)
        stats = app.run_trace(gen.sample(3000))
        assert stats.hit_rate > 0.2


class TestFastSimulation:
    def test_matches_expected_shape(self):
        gen = ZipfGenerator(5000, alpha=1.1, seed=33)
        keys = gen.sample(20_000)
        tiny = simulate_netcache(2, 512, 2, 16, keys, hot_threshold=8)
        big = simulate_netcache(2, 512, 4, 2048, keys, hot_threshold=8)
        # More cache capacity -> strictly better hit rate on a skewed trace.
        assert big.hit_rate > tiny.hit_rate

    def test_degenerate_configs_yield_zero(self):
        keys = [1, 2, 3]
        assert simulate_netcache(0, 0, 2, 16, keys).hit_rate == 0.0
        assert simulate_netcache(2, 16, 0, 0, keys).hit_rate == 0.0

    def test_accurate_sketch_beats_degenerate_sketch(self):
        # Evictions are driven by sketch reports: a one-cell sketch makes
        # every key look equally hot, so replacement can never identify a
        # colder victim and the cache freezes on its first occupants.
        gen = ZipfGenerator(5000, alpha=1.05, seed=34)
        keys = gen.sample(20_000)
        good = simulate_netcache(4, 4096, 2, 64, keys, hot_threshold=2)
        degenerate = simulate_netcache(1, 1, 2, 64, keys, hot_threshold=2)
        assert good.hit_rate >= degenerate.hit_rate
        assert good.evictions > 0

    def test_eviction_follows_estimates(self):
        # A capacity-1 cache with two keys: after the second key clearly
        # dominates, it must displace the first.
        keys = [1, 2] + [2] * 30
        stats = simulate_netcache(2, 1024, 1, 1, keys, hot_threshold=1)
        assert stats.evictions >= 1
        # Key 2 ends up cached: its later requests hit.
        assert stats.hits > 20

    def test_pipeline_and_reference_agree_roughly(self, app):
        # Same policy on the compiled pipeline and the reference
        # structures at identical sizes and seeds: hit rates must be
        # identical given identical hashing — run a modest trace.
        fresh = NetCacheApp(app.compiled.target, hot_threshold=4)
        gen = ZipfGenerator(500, alpha=1.2, seed=35)
        keys = [int(k) for k in gen.sample(1500)]
        pipeline_stats = fresh.run_trace(keys)
        ref_stats = simulate_netcache(
            fresh.cms_rows, fresh.cms_cols, fresh.kv_rows, fresh.kv_cols,
            keys, hot_threshold=4,
        )
        assert pipeline_stats.hits == ref_stats.hits
        assert pipeline_stats.insertions == ref_stats.insertions


class TestBatchedServing:
    """``run_trace(serve_batch=N)`` scans result columns; what it decides
    must not depend on which engine produced them."""

    @pytest.fixture(scope="class")
    def tiny_cache(self, mini_tofino):
        # 16-column structures: a crowded store and a noisy sketch, so
        # the controller both evicts and refuses within a short trace.
        return NetCacheApp(mini_tofino, hot_threshold=4,
                           source=netcache_source(max_cols=16))

    def test_engines_agree_on_stats_and_registers(self, mini_tofino,
                                                  tiny_cache):
        keys = ZipfGenerator(2000, alpha=1.1, seed=35).sample(5000)
        outcomes = {}
        for engine in ("vector", "compiled", "interp"):
            app = NetCacheApp(mini_tofino, hot_threshold=4, engine=engine,
                              compiled=tiny_cache.compiled)
            stats = app.run_trace(keys, serve_batch=4096)
            registers = app.pipeline.registers.export_state()
            outcomes[engine] = (
                (stats.packets, stats.hits, stats.insertions,
                 stats.evictions, stats.rejected_insertions),
                {name: cells.tolist() for name, cells in registers.items()},
                sorted(app._cached_keys),
            )
        assert outcomes["vector"] == outcomes["compiled"] == outcomes["interp"]
        packets, hits, insertions, evictions, rejected = outcomes["vector"][0]
        assert packets == 5000 and hits > 0 and insertions > 0
        assert evictions > 0 and rejected > 0
