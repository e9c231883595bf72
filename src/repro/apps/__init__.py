"""Applications built from the elastic module library (Figure 11).

Each application ships its elastic P4All source (composed from
:mod:`repro.structures` modules). NetCache and PRECISION also ship a
harness class that compiles the source and drives the PISA simulator
with the application's control-plane logic, and NetCache a fast
reference-structure simulation of the same control loop for
workload-scale sweeps. The per-packet runners of SketchLearn and
ConQuest, and PRECISION's reference simulation, are the tests'
reference and live in ``tests/apps/reference.py``.

=============  ==========================================================
NetCache       count-min sketch + key-value store; hot keys cached on the
               switch (§3's running example)
SketchLearn    multi-level hierarchical sketch; flow extraction by
               per-bit counter ratios
PRECISION      multi-row counting hash table; heavy hitters with
               probabilistic recirculation
ConQuest       round-robin count-min snapshots; per-flow queue occupancy
=============  ==========================================================
"""

from .conquest import conquest_module, conquest_source
from .netcache import (
    NETCACHE_UTILITY,
    NetCacheApp,
    NetCacheProgramError,
    NetCacheStats,
    netcache_linked,
    netcache_source,
    simulate_netcache,
)
from .precision import PrecisionApp, PrecisionStats, precision_source
from .sketchlearn import sketchlearn_source

__all__ = [
    "conquest_module",
    "conquest_source",
    "NETCACHE_UTILITY",
    "NetCacheApp",
    "NetCacheProgramError",
    "NetCacheStats",
    "netcache_linked",
    "netcache_source",
    "simulate_netcache",
    "PrecisionApp",
    "PrecisionStats",
    "precision_source",
    "sketchlearn_source",
    "APP_SOURCES",
]


def APP_SOURCES() -> dict[str, str]:
    """name → elastic source for all four applications (default configs)."""
    return {
        "netcache": netcache_source(),
        "sketchlearn": sketchlearn_source(),
        "precision": precision_source(),
        "conquest": conquest_source(),
    }
