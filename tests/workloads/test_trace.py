"""Synthetic flow-trace tests."""

import numpy as np

from repro.workloads import synthesize_trace


class TestSynthesizeTrace:
    def test_ground_truth_consistent(self):
        trace = synthesize_trace(flows=100, mean_packets_per_flow=5, seed=1)
        ids, counts = np.unique(trace.flow_ids, return_counts=True)
        counted = {int(f): int(c) for f, c in zip(ids, counts)}
        assert counted == trace.flow_sizes

    def test_deterministic(self):
        a = synthesize_trace(flows=50, seed=2)
        b = synthesize_trace(flows=50, seed=2)
        assert np.array_equal(a.flow_ids, b.flow_ids)

    def test_heavy_tail_present(self):
        trace = synthesize_trace(flows=2000, mean_packets_per_flow=10,
                                 pareto_shape=1.2, seed=3)
        sizes = np.array(sorted(trace.flow_sizes.values(), reverse=True))
        top1pct = sizes[: max(len(sizes) // 100, 1)].sum()
        # The top 1% of flows should carry well above 1% of packets.
        assert top1pct > 0.1 * sizes.sum()

    def test_timestamps_sorted_and_bounded(self):
        trace = synthesize_trace(flows=50, duration=2.0, seed=4)
        ts = trace.timestamps
        assert np.all(np.diff(ts) >= 0)
        assert ts.max() <= 2.0

    def test_packet_iteration(self):
        trace = synthesize_trace(flows=10, mean_packets_per_flow=3, seed=5)
        packets = list(trace.packets())
        assert len(packets) == len(trace)
        assert all(p.fields["flow_id"] >= 1 for p in packets)
        assert all(64 <= p.length <= 1500 for p in packets)

    def test_heavy_flows_threshold(self):
        trace = synthesize_trace(flows=100, seed=6)
        heavy = trace.heavy_flows(threshold=50)
        for flow in heavy:
            assert trace.flow_sizes[flow] >= 50
