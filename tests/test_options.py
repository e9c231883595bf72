"""The settable surface, pinned by name.

Every parameter below is one somebody can set. A setting that no CLI
flag, eval harness, example or benchmark sets is a module constant
instead (the layout-tier capacity, the drift policy, the flight ring
size, the hash family). A change that adds a parameter edits this list,
and its CHANGES entry names the two non-test callers that need
different values. Pure introspection: nothing is compiled or run.
"""

import dataclasses
import inspect

import pytest

from repro.apps.netcache import NetCacheApp
from repro.core import CompileCache, CompileOptions
from repro.fabric import FleetConfig
from repro.obs import FlightRecorder
from repro.pisa import Pipeline
from repro.runtime import TrafficMonitor
from repro.structures import CountMinSketch, KeyValueStore

from tests.structures.reference import (
    BloomFilter,
    CountingHashTable,
    HashMatrix,
    HierarchicalSketch,
)

FIELDS = {
    CompileOptions: ["entry", "time_limit", "exclusion_as_precedence",
                     "cache"],
    FleetConfig: ["window_packets", "vnodes", "hot_threshold",
                  "skew_threshold", "max_move_fraction", "drift_reconfig",
                  "migrate_state", "engine", "serve_batch"],
}

PARAMETERS = {
    Pipeline: ["compiled", "validate", "engine", "banks", "bank"],
    NetCacheApp: ["target", "hot_threshold", "source", "compiled", "engine",
                  "banks", "bank"],
    CompileCache: [],
    TrafficMonitor: [],
    FlightRecorder: [],
    CountMinSketch: ["rows", "cols", "width", "seed_offset"],
    KeyValueStore: ["rows", "cols", "value_slices", "seed_offset"],
    # The reference models under tests/ that the pipeline tests build.
    CountingHashTable: ["rows", "cols", "seed_offset"],
    HierarchicalSketch: ["key_bits", "cols", "seed_offset"],
    BloomFilter: ["hashes", "bits_per_partition", "seed_offset"],
    HashMatrix: ["rows", "cols", "width", "seed_offset"],
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_dataclass_fields(cls):
    assert [f.name for f in dataclasses.fields(cls)] == FIELDS[cls]


@pytest.mark.parametrize("cls", list(PARAMETERS), ids=lambda c: c.__name__)
def test_constructor_parameters(cls):
    assert list(inspect.signature(cls).parameters) == PARAMETERS[cls]
