"""Zipf-distributed key workloads.

NetCache-style key-value workloads are heavily skewed; the paper's
quality experiment (Figure 4) depends only on that skew, so a seeded
Zipf sampler over a fixed key universe is the faithful synthetic
substitute for production request traces (see DESIGN.md §2).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ZipfGenerator"]


class ZipfGenerator:
    """Seeded sampler over keys ``1..universe`` with P(k) ∝ 1/rank^alpha.

    Uses an exact inverse-CDF table (not scipy's unbounded Zipf), so the
    key universe is finite and every key can appear.
    """

    def __init__(self, universe: int, alpha: float = 0.99, seed: int = 42):
        if universe <= 0:
            raise ValueError("universe must be positive")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.universe = universe
        self.alpha = alpha
        self.seed = seed
        ranks = np.arange(1, universe + 1, dtype=np.float64)
        weights = ranks ** (-alpha)
        self._cdf = np.cumsum(weights / weights.sum())
        self._rng = np.random.default_rng(seed)
        # Keys are assigned to ranks via a seeded shuffle so that key id
        # and popularity rank are uncorrelated (and never 0 — key 0 is the
        # empty-slot sentinel in register-based stores).
        perm_rng = np.random.default_rng(seed ^ 0x5EED)
        self._rank_to_key = perm_rng.permutation(universe) + 1

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` keys (vectorized)."""
        u = self._rng.random(count)
        ranks = np.searchsorted(self._cdf, u)
        return self._rank_to_key[ranks]

    def hottest(self, n: int) -> np.ndarray:
        """The ``n`` most popular keys, hottest first."""
        return self._rank_to_key[:n].copy()

    def popularity(self, key: int) -> float:
        """Exact request probability of one key."""
        rank_index = int(np.where(self._rank_to_key == key)[0][0])
        prev = self._cdf[rank_index - 1] if rank_index > 0 else 0.0
        return float(self._cdf[rank_index] - prev)

    def optimal_hit_rate(self, cache_size: int) -> float:
        """Hit rate of an oracle cache holding the ``cache_size`` hottest
        keys — the upper bound any NetCache configuration can approach."""
        cache_size = min(cache_size, self.universe)
        return float(self._cdf[cache_size - 1]) if cache_size > 0 else 0.0
