"""PRECISION application tests."""

import pytest

from repro.apps import PrecisionApp, precision_source
from repro.lang import check_program, parse_program
from repro.workloads import synthesize_trace

from tests.apps.reference import simulate_precision


class TestSource:
    def test_parses_and_checks(self):
        info = check_program(parse_program(precision_source()))
        assert {"ht_rows", "ht_cols"} <= set(info.symbolics)


@pytest.fixture(scope="module")
def app(mini_tofino):
    return PrecisionApp(mini_tofino, seed=41)


class TestCompiledApp:
    def test_table_dimensions(self, app):
        assert app.rows >= 1 and app.cols > 0

    def test_heavy_hitters_recall(self, app):
        trace = synthesize_trace(
            flows=300, mean_packets_per_flow=8, pareto_shape=1.1, seed=42
        )
        stats = app.run_trace(trace.flow_ids)
        assert stats.packets == len(trace)
        assert stats.installs > 0
        threshold = 100
        truth = trace.heavy_flows(threshold)
        if truth:
            # PRECISION detects at least 60% of heavy flows (its
            # advantage is exactly high recall under eviction pressure).
            detected = app.heavy_keys(threshold // 2)
            recall = len(truth & detected) / len(truth)
            assert recall >= 0.6

    def test_tracked_flow_counts_close_to_truth(self, app):
        # A very heavy flow's counter undercounts only by the packets
        # before its installation.
        trace = synthesize_trace(
            flows=50, mean_packets_per_flow=40, pareto_shape=1.1, seed=43
        )
        app.run_trace(trace.flow_ids)
        biggest = max(trace.flow_sizes, key=trace.flow_sizes.get)
        count = app.count_of(biggest)
        assert count > 0
        assert count <= trace.flow_sizes[biggest] * 2  # sanity (shared app state)


class TestFastSimulation:
    def test_recirculation_is_rare_for_tracked_flows(self):
        trace = synthesize_trace(
            flows=100, mean_packets_per_flow=30, pareto_shape=1.3, seed=44
        )
        _table, stats = simulate_precision(4, 512, trace.flow_ids, seed=45)
        # Probabilistic recirculation: a small fraction of packets.
        assert stats.recirculation_rate < 0.5
        assert stats.tracked_hits > 0

    def test_bigger_table_tracks_more(self):
        trace = synthesize_trace(
            flows=800, mean_packets_per_flow=12, pareto_shape=1.2, seed=46
        )
        _t1, small = simulate_precision(2, 64, trace.flow_ids, seed=47)
        _t2, large = simulate_precision(4, 2048, trace.flow_ids, seed=47)
        assert large.tracked_hits > small.tracked_hits
