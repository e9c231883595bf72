"""State migration: counter folds and the compile→populate→shrink→
migrate→validate round trip."""

import numpy as np
import pytest

from repro.apps.netcache import NetCacheApp
from repro.core import validate_layout
from repro.runtime import (
    fold_counters,
    readmit_by_heat,
    restore_registers,
    snapshot_registers,
)
from repro.workloads import ZipfGenerator

MASK32 = (1 << 32) - 1


class TestFoldCounters:
    def test_same_size_is_copy(self):
        old = np.arange(8, dtype=np.uint64)
        folded, exact = fold_counters(old, 8, MASK32)
        assert exact
        assert np.array_equal(folded, old)
        folded[0] = 99
        assert old[0] == 0  # a copy, not a view

    def test_exact_fold_when_divisible(self):
        old = np.arange(8, dtype=np.uint64)
        folded, exact = fold_counters(old, 4, MASK32)
        assert exact
        # cell j aggregates old cells j and j+4
        assert folded.tolist() == [0 + 4, 1 + 5, 2 + 6, 3 + 7]

    def test_total_mass_preserved(self):
        rng = np.random.default_rng(0)
        old = rng.integers(0, 1000, size=48).astype(np.uint64)
        for new_cells in (48, 24, 16, 7, 5):
            folded, _ = fold_counters(old, new_cells, MASK32)
            assert folded.sum() == old.sum()

    def test_inexact_when_not_divisible(self):
        old = np.ones(10, dtype=np.uint64)
        _folded, exact = fold_counters(old, 3, MASK32)
        assert not exact

    def test_growth_is_inexact(self):
        old = np.ones(4, dtype=np.uint64)
        folded, exact = fold_counters(old, 8, MASK32)
        assert not exact
        assert folded.sum() == old.sum()


@pytest.fixture()
def warm_old_app(compiled64, mini64):
    """A 64KB NetCache that served a Zipf trace (cache warm, sketch full)."""
    app = NetCacheApp(mini64, hot_threshold=4, compiled=compiled64)
    keys = ZipfGenerator(2000, alpha=1.3, seed=5).sample(4000)
    app.run_trace(keys)
    assert app.cached_entries()
    return app


class TestMigrationRoundTrip:
    def test_round_trip_shrink(self, warm_old_app, compiled32, mini32):
        new_app = NetCacheApp(mini32, hot_threshold=4, compiled=compiled32)
        report = warm_old_app.migrate_to(new_app)

        # Accounting adds up and something actually moved.
        assert report.kv_entries_old == len(warm_old_app.cached_entries())
        assert report.kv_migrated + report.kv_dropped == report.kv_entries_old
        assert report.kv_migrated > 0
        assert 0.0 <= report.kv_loss_fraction <= 1.0

        # 2048 -> 1024 columns divides evenly: the fold is exact and
        # mass-preserving.
        assert report.cms_exact_fold
        assert report.cms_mass_new == report.cms_mass_old
        assert report.cms_rows_migrated == min(warm_old_app.cms_rows,
                                               new_app.cms_rows)

        # The migrated layout still validates against the real target.
        validate_layout(new_app.compiled)

        # Every migrated entry is servable: the data plane hits on it.
        migrated = {key for _row, key, _v in new_app.cached_entries()}
        assert len(migrated) == report.kv_migrated
        stats = new_app.run_trace(sorted(migrated))
        assert stats.hits == len(migrated)

    def test_exact_fold_preserves_overestimate(self, warm_old_app,
                                               compiled32, mini32):
        # Count-min invariant: after an exact fold, a key's estimate in
        # the new sketch is at least its estimate in the old one.
        new_app = NetCacheApp(mini32, hot_threshold=4, compiled=compiled32)
        warm_old_app.migrate_to(new_app)
        for key in list(warm_old_app._cached_keys)[:50]:
            assert new_app.estimate(key) >= warm_old_app.estimate(key)

    def test_hottest_entries_survive(self, warm_old_app, compiled32, mini32):
        # Re-admission is heat-ranked: any dropped entry must be no
        # hotter than the coldest migrated one.
        new_app = NetCacheApp(mini32, hot_threshold=4, compiled=compiled32)
        report = warm_old_app.migrate_to(new_app)
        if report.kv_dropped == 0:
            pytest.skip("nothing dropped at this cache ratio")
        migrated = {key for _r, key, _v in new_app.cached_entries()}
        dropped = {key for _r, key, _v in warm_old_app.cached_entries()
                   if key not in migrated}
        max_dropped = max(warm_old_app.estimate(k) for k in dropped)
        min_migrated = min(warm_old_app.estimate(k) for k in migrated)
        # Hash collisions can strand a hot key, but the orderings must
        # broadly agree; with exact heat ranking the boundary estimates
        # cannot invert by more than the collision slack.
        assert min_migrated >= 1
        assert max_dropped <= max(
            warm_old_app.estimate(k) for k in migrated
        )

    def test_values_preserved(self, warm_old_app, compiled32, mini32):
        new_app = NetCacheApp(mini32, hot_threshold=4, compiled=compiled32)
        warm_old_app.migrate_to(new_app)
        old_values = {key: value
                      for _r, key, value in warm_old_app.cached_entries()}
        for _row, key, value in new_app.cached_entries():
            assert old_values[key] == value

    def test_old_app_untouched(self, warm_old_app, compiled32, mini32):
        before_entries = sorted(warm_old_app.cached_entries())
        before_sketch = [
            warm_old_app.pipeline.registers.get(f"cms_sketch[{r}]").dump().copy()
            for r in range(warm_old_app.cms_rows)
        ]
        new_app = NetCacheApp(mini32, hot_threshold=4, compiled=compiled32)
        warm_old_app.migrate_to(new_app)
        assert sorted(warm_old_app.cached_entries()) == before_entries
        for row, dump in enumerate(before_sketch):
            now = warm_old_app.pipeline.registers.get(
                f"cms_sketch[{row}]").dump()
            assert np.array_equal(now, dump)

    def test_migrate_to_same_layout_is_lossless(self, warm_old_app,
                                                compiled64, mini64):
        new_app = NetCacheApp(mini64, hot_threshold=4, compiled=compiled64)
        report = warm_old_app.migrate_to(new_app)
        assert report.kv_dropped == 0
        assert report.kv_migrated == report.kv_entries_old
        assert report.cms_exact_fold
        assert sorted(new_app.cached_entries()) == sorted(
            warm_old_app.cached_entries()
        )


class TestGenericSnapshotRestore:
    """The structure-generic snapshot/restore API under the hot-swap
    wrapper (new in the fabric PR; the wrapper composes these)."""

    def test_snapshot_captures_all_families(self, warm_old_app):
        snap = snapshot_registers(warm_old_app.pipeline)
        assert "cms_sketch" in snap.families()
        assert "kv_keys" in snap.families()
        assert snap.total_cells > 0
        assert snap.packets_processed == warm_old_app.pipeline.packets_processed

    def test_snapshot_family_filter(self, warm_old_app):
        snap = snapshot_registers(warm_old_app.pipeline,
                                  families=("cms_sketch",))
        assert snap.families() == ["cms_sketch"]
        assert snap.mass("cms_sketch") == snap.mass()

    def test_snapshot_is_a_copy(self, warm_old_app):
        snap = snapshot_registers(warm_old_app.pipeline,
                                  families=("cms_sketch",))
        name = next(iter(snap.arrays))
        before = warm_old_app.pipeline.registers.get(name).dump().copy()
        snap.arrays[name][:] = 0
        assert np.array_equal(
            warm_old_app.pipeline.registers.get(name).dump(), before
        )

    def test_restore_same_geometry_exact(self, warm_old_app, compiled64,
                                         mini64):
        new_app = NetCacheApp(mini64, hot_threshold=4, compiled=compiled64)
        snap = snapshot_registers(warm_old_app.pipeline)
        report = restore_registers(snap, new_app.pipeline)
        assert report.exact
        assert report.folded == 0
        assert report.dropped == 0
        assert report.mass_out == report.mass_in == snap.mass()

    def test_restore_folds_on_shrink(self, warm_old_app, compiled32,
                                     mini32):
        new_app = NetCacheApp(mini32, hot_threshold=4, compiled=compiled32)
        snap = snapshot_registers(warm_old_app.pipeline,
                                  families=("cms_sketch",))
        report = restore_registers(snap, new_app.pipeline,
                                   families=("cms_sketch",))
        assert report.folded > 0
        # 2048 -> 1024 columns divides evenly: exact, mass-preserving.
        assert report.exact
        assert report.mass_out == report.mass_in

    def test_restore_accumulate_adds(self, warm_old_app, compiled64,
                                     mini64):
        new_app = NetCacheApp(mini64, hot_threshold=4, compiled=compiled64)
        snap = snapshot_registers(warm_old_app.pipeline,
                                  families=("cms_sketch",))
        restore_registers(snap, new_app.pipeline, families=("cms_sketch",))
        report = restore_registers(snap, new_app.pipeline,
                                   families=("cms_sketch",),
                                   accumulate=True)
        # Second restore accumulates on top of the first: doubled mass.
        name = next(iter(snap.arrays))
        assert np.array_equal(
            new_app.pipeline.registers.get(name).dump(),
            (snap.arrays[name].astype(np.uint64) * 2)
        )
        assert report.mass_out == 2 * snap.mass()

    def test_restore_unknown_instances_dropped(self, warm_old_app,
                                               compiled64, mini64):
        new_app = NetCacheApp(mini64, hot_threshold=4, compiled=compiled64)
        snap = snapshot_registers(warm_old_app.pipeline)
        snap.arrays["ghost[0]"] = np.ones(4, dtype=np.uint64)
        snap.widths["ghost[0]"] = 32
        report = restore_registers(snap, new_app.pipeline)
        assert report.dropped == 1

    def test_readmit_by_heat_ranks_and_dedups(self):
        installed = []

        def install(key, value):
            if len(installed) == 2:
                return False
            installed.append((key, value))
            return True

        migrated, dropped = readmit_by_heat(
            [(1, 10), (2, 20), (3, 30), (2, 99)],
            heat={1: 5, 2: 50, 3: 7}.__getitem__,
            install=install,
        )
        assert migrated == 2 and dropped == 1
        # Hottest first; the duplicate key installs only once.
        assert installed == [(2, 99), (3, 30)]
