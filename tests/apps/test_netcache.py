"""NetCache application tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    NetCacheApp,
    NetCacheProgramError,
    netcache_source,
    simulate_netcache,
)
from repro.apps.netcache import serve
from repro.core import compile_source
from repro.lang import check_program, parse_program
from repro.pisa import Pipeline, RegisterBanks
from repro.structures import CMS_SOURCE
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


def outcome(app, stats):
    """Everything a serve leaves behind, comparable with ``==``."""
    registers = app.pipeline.registers.export_state()
    return (
        (stats.packets, stats.hits, stats.insertions, stats.evictions,
         stats.rejected_insertions),
        {name: cells.tolist() for name, cells in registers.items()},
        sorted(app._cached_keys),
    )


class TestBatchedServing:
    """``run_trace(serve_batch=N)`` replays the controller over result
    columns; what it decides must not depend on which engine produced
    them."""

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
            outcomes[engine] = outcome(
                app, app.run_trace(keys, serve_batch=4096))
        assert outcomes["vector"] == outcomes["compiled"] == outcomes["interp"]
        packets, hits, insertions, evictions, rejected = outcomes["vector"][0]
        assert packets == 5000 and hits > 0 and insertions > 0
        assert evictions > 0 and rejected > 0


ENGINES = ("vector", "compiled", "interp")
SERVE_BATCHES = (None, 1, 7, 300, 4096)


def crowded(target, with_routing=True):
    """Crowded 16-column layouts with one and three KV rows."""
    compiled = {}
    for kv_rows in (1, 3):
        source = netcache_source(
            max_cols=16, with_routing=with_routing).replace(
            "assume kv_rows >= 1;",
            f"assume kv_rows >= 1 && kv_rows <= {kv_rows};")
        compiled[kv_rows] = compile_source(source, target,
                                           source_name="netcache")
        assert compiled[kv_rows].symbol_values["kv_rows"] == kv_rows
    return compiled


@pytest.fixture(scope="module")
def layouts(mini_tofino):
    return crowded(mini_tofino)


@pytest.fixture(scope="module")
def unrouted(mini_tofino):
    """:func:`crowded` without the routing table: a layout switches can
    bank (each switch owns its table entries, so a table is never
    banked)."""
    return crowded(mini_tofino, with_routing=False)


class TestExactServing:
    """Every batched serve equals the per-packet reference
    (``serve_batch=0``) bit for bit: the five counters, every register
    and the cached-key set, on every engine, for every sub-batch size."""

    def serve(self, compiled, keys, hot_threshold, engine, serve_batch,
              prepare=None):
        app = NetCacheApp(compiled.target, hot_threshold=hot_threshold,
                          compiled=compiled, engine=engine)
        if prepare is not None:
            prepare(app)
        return app, app.run_trace(keys, serve_batch=serve_batch)

    def check_all_equal_reference(self, compiled, keys, hot_threshold,
                                  prepare=None):
        """Every (engine, sub-batch) against ``serve_batch=0``; returns
        the reference app and stats."""
        app, stats = self.serve(compiled, keys, hot_threshold, "compiled", 0,
                                prepare)
        reference = outcome(app, stats)
        for engine in ENGINES:
            for serve_batch in SERVE_BATCHES:
                served = outcome(*self.serve(compiled, keys, hot_threshold,
                                             engine, serve_batch, prepare))
                assert served == reference, (engine, serve_batch)
        return app, stats

    @pytest.mark.parametrize("hot_threshold", [1, 4, 8])
    @pytest.mark.parametrize("kv_rows", [1, 3])
    def test_equals_reference_and_simulation(self, layouts, kv_rows,
                                             hot_threshold):
        compiled = layouts[kv_rows]
        keys = ZipfGenerator(300, alpha=1.0, seed=36).sample(600)
        app, stats = self.check_all_equal_reference(compiled, keys,
                                                    hot_threshold)
        assert stats.evictions > 0 and stats.rejected_insertions > 0
        simulated = simulate_netcache(
            app.cms_rows, app.cms_cols, app.kv_rows, app.kv_cols, keys,
            hot_threshold=hot_threshold)
        assert ((stats.hits, stats.insertions, stats.evictions)
                == (simulated.hits, simulated.insertions,
                    simulated.evictions))

    def test_key_evicted_and_re_requested_in_one_sub_batch(self, layouts):
        compiled = layouts[1]
        probe = NetCacheApp(compiled.target, compiled=compiled)
        slot = lambda key: probe.pipeline.hash_value(
            100, key, width=1 << 32) % probe.kv_cols
        first, second = next(
            (a, b) for a in range(1, 200) for b in range(a + 1, 200)
            if slot(a) == slot(b))
        # ``first`` is cached, ``second`` overtakes and evicts it, then
        # ``first`` comes back, misses, and wins the slot again - all
        # inside any sub-batch of 300.
        keys = [first] * 6 + [second] * 12 + [first] * 20 + [second] * 5
        app, stats = self.check_all_equal_reference(compiled, keys, 4)
        assert stats.insertions == 1 and stats.evictions == 2
        assert stats.rejected_insertions > 0
        assert first in app._cached_keys and second not in app._cached_keys

    @staticmethod
    def near_wrap(app):
        """Every 32-bit sketch counter three short of wrapping."""
        for row in range(app.cms_rows):
            register = app.pipeline.registers.get(f"cms_sketch[{row}]")
            register.load(np.full(register.cells, (1 << 32) - 3))

    def test_sketch_counters_wrapping(self, layouts):
        """32-bit counters three short of wrapping: estimates, and the
        occupants' estimates as of each lane, cross zero mid-batch."""
        keys = ZipfGenerator(300, alpha=1.0, seed=37).sample(400)
        for kv_rows in (1, 3):
            app, stats = self.check_all_equal_reference(
                layouts[kv_rows], keys, 4, prepare=self.near_wrap)
            assert stats.insertions > 0 and stats.evictions > 0
            wrapped = app.pipeline.register_dump("cms_sketch", 0)
            assert 0 < int(wrapped.max()) < 1 << 31

    @staticmethod
    def rivals(app, key, count):
        """``count`` keys that probe ``key``'s store slot (one KV row)
        and share none of its sketch cells."""
        def slot(k):
            return app.pipeline.hash_value(100, k, width=1 << 32) % app.kv_cols

        def cells(k):
            return [app.pipeline.hash_value(row, k, width=1 << 32)
                    % app.cms_cols for row in range(app.cms_rows)]

        return [k for k in range(1, 5000) if k != key
                and slot(k) == slot(key)
                and all(a != b for a, b in zip(cells(k), cells(key)))][:count]

    @staticmethod
    def count_exact_reads(monkeypatch):
        """Calls of the replay's exact as-of path, as they happen."""
        calls = []
        exact = NetCacheApp._later_on

        def counted(self, *args):
            calls.append(args)
            return exact(self, *args)

        monkeypatch.setattr(NetCacheApp, "_later_on", counted)
        return calls

    def test_bound_settles_every_candidate(self, layouts, monkeypatch):
        """A cached key counted 40 times before the trace, and rivals for
        its slot that never get that hot: every candidate is a rejection
        the bound settles, with no exact as-of read."""
        compiled = layouts[1]
        probe = NetCacheApp(compiled.target, compiled=compiled)
        cached = 5
        rivals = self.rivals(probe, cached, 3)
        exact_reads = self.count_exact_reads(monkeypatch)
        _app, stats = self.check_all_equal_reference(
            compiled, [key for key in rivals for _ in range(6)], 4,
            prepare=lambda app: app.run_trace([cached] * 40, serve_batch=0))
        assert stats.rejected_insertions > 0
        assert stats.insertions == stats.evictions == 0
        assert exact_reads == []

    def test_occupant_wraps_inside_a_sub_batch(self, layouts, monkeypatch):
        """The cached key's sketch cells wrap to 0 inside the sub-batch,
        so their value before it bounds nothing: the rival stays open, and
        its exact as-of read evicts the wrapped key."""
        compiled = layouts[1]
        probe = NetCacheApp(compiled.target, compiled=compiled)
        cached = 5
        (rival,) = self.rivals(probe, cached, 1)

        def cached_near_wrap(app):
            self.near_wrap(app)
            assert app.install(cached, app.value_of(cached))

        exact_reads = self.count_exact_reads(monkeypatch)
        app, stats = self.check_all_equal_reference(
            compiled, [cached] * 3 + [rival] * 2, 4,
            prepare=cached_near_wrap)
        assert stats.evictions == 1 and stats.rejected_insertions == 0
        assert rival in app._cached_keys and cached not in app._cached_keys
        assert exact_reads

    def test_empty_and_one_key_traces(self, layouts):
        for keys in ([], [41]):
            _app, stats = self.check_all_equal_reference(layouts[3], keys, 1)
            assert stats.packets == len(keys)
            assert stats.insertions == len(keys)

    def test_sub_batch_size_is_not_negative(self, layouts):
        app = NetCacheApp(layouts[1].target, compiled=layouts[1])
        with pytest.raises(ValueError, match="serve_batch"):
            app.run_trace([1, 2, 3], serve_batch=-1)



class TestBankedServing:
    """``serve`` of k apps banked in one register set — one kernel call
    per round of sub-batches — equals each app serving its trace alone:
    counters, registers, cached keys and occupant counters."""

    @staticmethod
    def one_below_wrap(app):
        for register in app._sketch:
            register.load(np.full(register.cells, (1 << 32) - 1))

    @staticmethod
    def banked(compiled, k, hot_threshold=4):
        banks = RegisterBanks(k)
        return [NetCacheApp(compiled.target, hot_threshold=hot_threshold,
                            compiled=compiled, banks=banks, bank=bank)
                for bank in range(k)]

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_equals_each_app_alone(self, unrouted, data):
        compiled = unrouted[data.draw(st.sampled_from([1, 3]), "kv_rows")]
        k = data.draw(st.integers(1, 4), "k")
        traces = data.draw(st.lists(
            st.lists(st.integers(1, 40), max_size=150),
            min_size=k, max_size=k), "traces")
        serve_batch = data.draw(st.one_of(st.none(), st.integers(0, 64)),
                                "serve_batch")
        hot_threshold = data.draw(st.sampled_from([1, 2, 4]), "threshold")
        wrapped = data.draw(st.lists(st.booleans(), min_size=k, max_size=k),
                            "wrapped")
        banked = self.banked(compiled, k, hot_threshold)
        alone = [NetCacheApp(compiled.target, hot_threshold=hot_threshold,
                             compiled=compiled) for _ in range(k)]
        for pair, wrap in zip(zip(banked, alone), wrapped):
            for app in pair if wrap else ():
                self.one_below_wrap(app)
        stats = serve(banked, traces, serve_batch)
        for app, reference, trace, stat in zip(banked, alone, traces, stats):
            expected = reference.run_trace(trace, serve_batch=serve_batch)
            assert outcome(app, stat) == outcome(reference, expected)
            np.testing.assert_array_equal(app._occupants,
                                          reference._occupants)
            assert app.pipeline.packets_processed == len(trace)

    def test_one_kernel_call_per_round(self, unrouted, monkeypatch):
        """Three apps, one with no lanes: rounds of 50-key sub-batches
        are one banked call each, counted on the first app."""
        calls = []
        process_columns = Pipeline.process_columns

        def counted(pipeline, columns, *args, **kwargs):
            calls.append(kwargs.get("bank"))
            return process_columns(pipeline, columns, *args, **kwargs)

        monkeypatch.setattr(Pipeline, "process_columns", counted)
        apps = self.banked(unrouted[3], 3)
        keys = ZipfGenerator(300, alpha=1.0, seed=38).sample(120)
        stats = serve(apps, [keys, [], keys[:30]], serve_batch=50)
        assert len(calls) == 3 == stats[0].batches
        assert [s.batches for s in stats[1:]] == [0, 0]
        assert calls[0].tolist() == [0] * 50 + [2] * 30
        assert [s.packets for s in stats] == [120, 0, 30]
        assert stats[1].busy_seconds == 0.0 < stats[2].busy_seconds

    def test_apps_of_other_sets_are_refused(self, layouts):
        first, second = (NetCacheApp(layouts[1].target, compiled=layouts[1])
                         for _ in range(2))
        with pytest.raises(ValueError, match="banks of one set"):
            serve([first, second], [[1], [2]])


class TestControllerState:
    """What the controller keeps beside the store — the cached-key set
    and each slot's occupant counters — is what the store implies, after
    anything that writes it. The replay leans on both: a miss is a
    candidate (its key is not stored, so not cached), and an occupant's
    counters come from its slot, not from hashing it."""

    @staticmethod
    def assert_consistent(app):
        slots = app._slot_keys.nonzero()[0]
        stored = app._slot_keys[slots]
        assert app._cached_keys == set(stored.tolist())
        np.testing.assert_array_equal(app._occupants[:, slots],
                                      app._cells_of(stored))

    @staticmethod
    def listed(app, key):
        return [k for _row, k, _value in app.cached_entries()].count(key)

    def test_installing_a_cached_key_keeps_one_copy(self, layouts):
        compiled = layouts[3]
        app = NetCacheApp(compiled.target, compiled=compiled)
        dst = NetCacheApp(compiled.target, compiled=compiled)
        key = 7
        for cache in (app, app, dst):
            assert cache.install(key, cache.value_of(key))
        assert self.listed(app, key) == 1
        app.migrate_to(dst, accumulate=True)
        assert self.listed(dst, key) == 1
        self.assert_consistent(app)
        self.assert_consistent(dst)

    @pytest.mark.parametrize("serve_batch", [0, None])
    def test_state_follows_every_write(self, layouts, serve_batch):
        compiled = layouts[3]
        keys = ZipfGenerator(300, alpha=1.0, seed=38).sample(900)
        app = NetCacheApp(compiled.target, compiled=compiled,
                          hot_threshold=2)
        app.run_trace(keys[:300], serve_batch=serve_batch)
        self.assert_consistent(app)
        state = app.snapshot()
        app.run_trace(keys[300:600], serve_batch=serve_batch)
        self.assert_consistent(app)
        app.restore(state)
        self.assert_consistent(app)
        for key in (100_001, 100_002, 100_003):
            app.install(key, app.value_of(key))
            self.assert_consistent(app)
        dst = NetCacheApp(compiled.target, compiled=compiled,
                          hot_threshold=2)
        dst.run_trace(keys[600:], serve_batch=serve_batch)
        app.migrate_to(dst, accumulate=True)
        self.assert_consistent(dst)
        assert app.run_trace(keys[600:], serve_batch=serve_batch).packets

    def test_occupancy_is_the_filled_share_of_each_store(self, layouts):
        """Read from the two family blocks, equal to summing every row."""
        app = NetCacheApp(layouts[3].target, hot_threshold=2,
                          compiled=layouts[3])
        assert app.occupancy() == {"kv": 0.0, "cms": 0.0}
        app.run_trace(ZipfGenerator(300, alpha=1.0, seed=39).sample(200))

        def filled(arrays):
            return (sum(array.nonzero_cells() for array in arrays)
                    / sum(array.cells for array in arrays))

        occupancy = app.occupancy()
        assert occupancy == {"kv": filled(app._kv_keys),
                             "cms": filled(app._sketch)}
        assert 0.0 < occupancy["kv"] < 1.0

    def test_key_zero_is_never_cached(self, layouts):
        """Key 0 marks a free slot: storing it frees the slot and caches
        nothing, so the cached set stays the set of stored keys."""
        compiled = layouts[1]
        app = NetCacheApp(compiled.target, compiled=compiled)
        rival = next(k for k in range(1, 500)
                     if app._slot(0, k) == app._slot(0, 0))
        assert app.install(rival, app.value_of(rival))
        app._write_slot(0, 0, app.value_of(0))
        assert app._cached_keys == set() and app.cached_entries() == []
        self.assert_consistent(app)


class TestProgramCheck:
    """The app refuses a program its replay would be wrong for."""

    def test_program_without_the_cache_fields(self, mini_tofino):
        compiled = compile_source(CMS_SOURCE, mini_tofino, source_name="cms")
        with pytest.raises(NetCacheProgramError, match="meta.kv_hit"):
            NetCacheApp(mini_tofino, compiled=compiled, source=CMS_SOURCE)

    def test_data_plane_writing_the_store(self, mini_tofino):
        source = netcache_source(max_cols=16).replace(
            "kv_keys[i].read(meta.kv_skey[i], meta.kv_idx[i]);",
            "kv_keys[i].swap(meta.kv_skey[i], meta.kv_idx[i], "
            "meta.req_key);")
        assert "kv_keys[i].swap" in source
        with pytest.raises(NetCacheProgramError, match=r"kv_keys\[0\]"):
            NetCacheApp(mini_tofino, source=source)
