"""Experiment-harness shape tests (small configurations).

These assert the *shape* claims of each paper figure (see DESIGN.md §4)
on reduced parameters; the full-scale runs live in benchmarks/.
"""

import dataclasses

import pytest

from repro.eval import (
    FleetScenario,
    compare_exclusion_handling,
    compare_greedy_vs_ilp,
    compare_solvers,
    measure_bound_tightness,
    render_table,
    run_elastic_runtime,
    run_fleet,
    run_quality_sweep,
    run_unroll_example,
)
from repro.pisa.resources import small_target, toy_three_stage
from repro.structures import CMS_SOURCE


class TestFig09Harness:
    def test_matches_paper(self):
        facts = run_unroll_example()
        assert facts.bound == 2
        assert facts.path_lengths == [2, 3, 4]
        assert len(facts.k3_exclusion) == 3
        assert "incr" in facts.format()


class TestFig04Harness:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_quality_sweep(
            memory_budget_bits=1 << 20,
            cms_row_options=(2,),
            kv_fractions=(0.0, 0.5, 0.95),
            packets=8_000,
            universe=5_000,
        )

    def test_extremes_lose(self, sweep):
        # No cache at all -> 0 hit rate; the balanced point must win.
        no_cache = next(p for p in sweep.points if p.kv_cols == 0)
        assert no_cache.hit_rate == 0.0
        assert sweep.best.kv_cols > 0
        assert sweep.best.cms_cols > 0

    def test_oracle_dominates(self, sweep):
        assert sweep.best.hit_rate <= sweep.oracle_hit_rate + 0.02

    def test_format_renders(self, sweep):
        text = sweep.format()
        assert "hit_rate" in text and "best:" in text


class TestAblationHarnesses:
    def test_greedy_vs_ilp(self):
        target = small_target(stages=6, memory_kb=32)
        result = compare_greedy_vs_ilp(CMS_SOURCE, target, name="cms")
        assert result.utility_gain >= 1.0
        assert "gain" in result.format()

    def test_exclusion_ablation(self):
        target = toy_three_stage()
        result = compare_exclusion_handling(CMS_SOURCE, target, name="cms")
        # All-precedence can only do worse or equal (§5 limitation).
        assert result.degraded_utility <= result.full_utility

    def test_bound_tightness(self):
        target = small_target(stages=6, memory_kb=32)
        result = measure_bound_tightness(CMS_SOURCE, target, name="cms")
        for sym, bound in result.bounds.items():
            assert result.chosen[sym] <= bound

    def test_solver_agreement(self):
        target = small_target(stages=4, memory_kb=8)
        result = compare_solvers(CMS_SOURCE, target, name="cms")
        assert result.agree, result.format()


class TestRuntimeHarness:
    """``python -m repro.eval runtime``: the memory cut, migrated and
    cold; every assertion here reads no clock."""

    def test_migrated_and_cold_swaps(self):
        comparison = run_elastic_runtime()
        migrated, cold = comparison.outcomes
        assert (migrated.label, cold.label) == ("migrated", "cold")
        assert migrated.backend == "ilp"
        # The cut recompile reuses the boot compile's front end.
        assert "incumbent_source" in migrated.solver_stats
        assert migrated.solver_stats["frontend_hits"] >= 1
        # The shrink, not the migrator, loses entries.
        assert migrated.kv_migrated > 0
        assert 0.0 <= migrated.kv_loss < 1.0
        assert migrated.recovery >= 0.9
        assert migrated.post_swap_first_window > cold.post_swap_first_window
        # Per-module attribution; the utility shares partition the
        # objective.
        assert {"kv", "cms"} <= set(migrated.module_attribution)
        shares = [a["utility_share"]
                  for a in migrated.module_attribution.values()
                  if a.get("utility_share") is not None]
        assert shares and sum(shares) == pytest.approx(1.0)
        assert "first window" in comparison.format()


class TestFleetHarness:
    """``python -m repro.eval fleet``: scale-out and a live migration;
    every assertion here reads no clock."""

    def test_scale_and_migration(self):
        scenario = FleetScenario(fleet_sizes=(1, 2, 4, 8))
        outcome = run_fleet(scenario)
        # The marginal switch's compile is a layout-cache hit.
        for point in outcome.scale:
            assert point.layout_cache_hits >= point.switches - 1
        mig = outcome.migration
        assert mig["committed"], mig["error"]
        assert mig["kv_dropped"] == 0
        assert mig["kv_migrated"] == mig["kv_entries_old"] > 0
        assert mig["replayed_packets"] == mig["downtime_packets"]
        assert mig["dropped_packets"] == 0
        assert 0 < mig["downtime_packets"] <= scenario.window_packets
        assert "Live migration" in outcome.format()


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a")
        assert len(lines) == 5
