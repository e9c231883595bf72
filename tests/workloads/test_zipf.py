"""Zipf workload tests."""

import numpy as np
import pytest

from repro.workloads import ZipfGenerator


class TestZipfGenerator:
    def test_deterministic_for_seed(self):
        a = ZipfGenerator(1000, alpha=1.0, seed=3).sample(500)
        b = ZipfGenerator(1000, alpha=1.0, seed=3).sample(500)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ZipfGenerator(1000, seed=1).sample(500)
        b = ZipfGenerator(1000, seed=2).sample(500)
        assert not np.array_equal(a, b)

    def test_keys_in_universe_and_nonzero(self):
        keys = ZipfGenerator(100, seed=4).sample(2000)
        assert keys.min() >= 1
        assert keys.max() <= 100

    def test_skew_orders_frequencies(self):
        gen = ZipfGenerator(1000, alpha=1.2, seed=5)
        keys = gen.sample(50_000)
        unique, counts = np.unique(keys, return_counts=True)
        freq = dict(zip(unique, counts))
        hottest = gen.hottest(10)
        cold = [k for k in range(1, 1001) if k not in set(hottest[:100])][:10]
        hot_mass = sum(freq.get(k, 0) for k in hottest)
        cold_mass = sum(freq.get(k, 0) for k in cold)
        assert hot_mass > 10 * max(cold_mass, 1)

    def test_alpha_zero_is_uniformish(self):
        gen = ZipfGenerator(50, alpha=0.0, seed=6)
        keys = gen.sample(50_000)
        _, counts = np.unique(keys, return_counts=True)
        assert counts.max() < 2 * counts.min()

    def test_popularity_sums_to_one(self):
        gen = ZipfGenerator(20, alpha=1.0, seed=7)
        total = sum(gen.popularity(k) for k in range(1, 21))
        assert total == pytest.approx(1.0)

    def test_oracle_hit_rate_monotone(self):
        gen = ZipfGenerator(1000, alpha=1.0, seed=8)
        rates = [gen.optimal_hit_rate(n) for n in (0, 10, 100, 1000)]
        assert rates == sorted(rates)
        assert rates[0] == 0.0
        assert rates[-1] == pytest.approx(1.0)

    def test_oracle_matches_empirical(self):
        gen = ZipfGenerator(500, alpha=1.1, seed=9)
        keys = gen.sample(100_000)
        top = set(int(k) for k in gen.hottest(50))
        empirical = np.isin(keys, list(top)).mean()
        assert empirical == pytest.approx(gen.optimal_hit_rate(50), abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0)
        with pytest.raises(ValueError):
            ZipfGenerator(10, alpha=-1)


def test_zipf_trace_convenience():
    # A seeded key trace is one ZipfGenerator call.
    trace = ZipfGenerator(100, seed=1).sample(1000)
    assert len(trace) == 1000
    assert trace.min() >= 1
