"""Traffic monitor tests: windows, baseline, drift, warmup."""

import pytest

from repro.runtime import TrafficMonitor


def feed(monitor, rates, packets=100):
    for rate in rates:
        monitor.record(int(rate * packets), packets)


class TestRecording:
    def test_window_samples(self):
        mon = TrafficMonitor()
        sample = mon.record(40, 100)
        assert sample.index == 0
        assert sample.hit_rate == 0.4
        assert mon.current_rate() == 0.4
        assert mon.windows_recorded == 1

    def test_timeline(self):
        mon = TrafficMonitor()
        feed(mon, [0.1, 0.2, 0.3])
        assert mon.timeline == [0.1, 0.2, 0.3]

    def test_history_bounded(self):
        mon = TrafficMonitor(history=4)
        feed(mon, [0.1] * 10)
        assert len(mon.samples) == 4
        assert mon.windows_recorded == 10

    def test_steady_and_baseline_rates(self):
        mon = TrafficMonitor(baseline_windows=3)
        feed(mon, [0.2, 0.4, 0.6, 0.8])
        # steady includes the newest window, baseline excludes it.
        assert mon.steady_rate() == pytest.approx((0.4 + 0.6 + 0.8) / 3)
        assert mon.baseline_rate() == pytest.approx((0.2 + 0.4 + 0.6) / 3)

    def test_empty_monitor_rates(self):
        mon = TrafficMonitor()
        assert mon.current_rate() == 0.0
        assert mon.steady_rate() == 0.0
        assert mon.baseline_rate() == 0.0


class TestDrift:
    def test_drop_below_threshold_detected(self):
        mon = TrafficMonitor(baseline_windows=3, drop_threshold=0.2,
                             warmup_windows=2)
        feed(mon, [0.8] * 6)
        assert not mon.drift_detected()
        mon.record(50, 100)  # 0.5 < 0.8 * 0.8
        assert mon.drift_detected()

    def test_small_dip_not_drift(self):
        mon = TrafficMonitor(baseline_windows=3, drop_threshold=0.2,
                             warmup_windows=2)
        feed(mon, [0.8] * 6)
        mon.record(70, 100)  # 0.7 >= 0.8 * 0.8
        assert not mon.drift_detected()

    def test_warmup_suppresses_drift(self):
        mon = TrafficMonitor(baseline_windows=2, drop_threshold=0.2,
                             warmup_windows=8)
        feed(mon, [0.8, 0.8, 0.8, 0.1])
        assert not mon.drift_detected()

    def test_reset_baseline_restarts_warmup(self):
        mon = TrafficMonitor(baseline_windows=2, drop_threshold=0.2,
                             warmup_windows=3)
        feed(mon, [0.8] * 6)
        mon.record(10, 100)
        assert mon.drift_detected()
        mon.reset_baseline()
        mon.record(10, 100)  # would be drift, but warmup restarted
        assert not mon.drift_detected()

    def test_zero_baseline_never_drifts(self):
        mon = TrafficMonitor(baseline_windows=2, warmup_windows=1)
        feed(mon, [0.0] * 8)
        assert not mon.drift_detected()

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            TrafficMonitor(drop_threshold=0.0)
        with pytest.raises(ValueError):
            TrafficMonitor(drop_threshold=1.0)


class TestTailReads:
    """The rates read only the history's tail, and equal the mean over a
    copy of the whole history, bit for bit (the summation order is
    oldest first either way)."""

    @staticmethod
    def copied_rates(mon, windows=None):
        """The rates as a full copy of the history computes them."""
        samples = list(mon.samples)
        recent = samples[-(windows or mon.baseline_windows):]
        prior = samples[:-1][-mon.baseline_windows:]

        def mean(part):
            return sum(s.hit_rate for s in part) / len(part) if part else 0.0

        return mean(recent), mean(prior)

    @pytest.mark.parametrize("count", [0, 1, 2, 7, 64, 200])
    @pytest.mark.parametrize("baseline_windows", [1, 5, 13])
    def test_rates_equal_a_full_copy(self, count, baseline_windows):
        import random

        rng = random.Random(count * 31 + baseline_windows)
        # history=64: the larger counts fill the deque and roll it.
        mon = TrafficMonitor(baseline_windows=baseline_windows, history=64)
        for _ in range(count):
            packets = rng.randint(1, 997)
            mon.record(rng.randint(0, packets), packets)
        steady, baseline = self.copied_rates(mon)
        assert mon.steady_rate() == steady
        assert mon.baseline_rate() == baseline
        for windows in (1, 3, 100):
            assert mon.steady_rate(windows) == self.copied_rates(
                mon, windows)[0]
