"""Property: NetCache's batched serve is exact under any sub-batching.

However a key trace is cut into sub-batches — any partition, served by
consecutive ``run_trace`` calls, at any ``serve_batch`` — the counters,
every register and the cached-key set equal the unsplit default serve
and the per-packet reference (``serve_batch=0``); also from sketch
counters a few counts short of the 32-bit wrap, where they wrap inside a
sub-batch.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import NetCacheApp, netcache_source
from repro.core import compile_source
from repro.pisa import tofino

_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TARGET = dataclasses.replace(tofino(), stages=6,
                             memory_bits_per_stage=64 * 1024)
#: Three crowded 16-slot KV rows over a 16-column sketch: a short trace
#: already promotes, evicts, refuses and re-promotes.
COMPILED = compile_source(
    netcache_source(max_cols=16, with_routing=False).replace(
        "assume kv_rows >= 1;", "assume kv_rows >= 1 && kv_rows <= 3;"),
    TARGET, source_name="netcache")

#: Mostly a small universe (same-slot and same-cell collisions, key 0
#: included), now and then any 32-bit key.
keys = st.lists(
    st.one_of(st.integers(0, 40), st.integers(0, (1 << 32) - 1)),
    max_size=120)


@st.composite
def split_traces(draw):
    """A trace and a partition of it into consecutive parts."""
    trace = draw(keys)
    cuts = sorted(draw(st.sets(st.integers(0, len(trace)), max_size=8)))
    edges = [0, *cuts, len(trace)]
    return trace, [trace[a:b] for a, b in zip(edges, edges[1:])]


def serve(parts, hot_threshold, serve_batch, short_of_wrap=None):
    """Serve ``parts`` in turn on a fresh app, every sketch counter
    preloaded to ``2**32 - short_of_wrap`` when that is given."""
    app = NetCacheApp(TARGET, compiled=COMPILED, hot_threshold=hot_threshold)
    if short_of_wrap is not None:
        for row in range(app.cms_rows):
            register = app.pipeline.registers.get(f"cms_sketch[{row}]")
            register.load(np.full(register.cells, (1 << 32) - short_of_wrap))
    totals = [0, 0, 0, 0, 0]
    for part in parts:
        stats = app.run_trace(part, serve_batch=serve_batch)
        for i, count in enumerate((stats.packets, stats.hits,
                                   stats.insertions, stats.evictions,
                                   stats.rejected_insertions)):
            totals[i] += count
    registers = app.pipeline.registers.export_state()
    return (totals,
            {name: cells.tolist() for name, cells in registers.items()},
            sorted(app._cached_keys))


class TestAnySubBatching:
    @given(split=split_traces(), hot_threshold=st.integers(1, 5),
           serve_batch=st.sampled_from([None, 1, 3, 50]),
           short_of_wrap=st.none() | st.integers(1, 12))
    @_SETTINGS
    def test_partition_equals_unsplit_equals_per_packet(
            self, split, hot_threshold, serve_batch, short_of_wrap):
        trace, parts = split
        reference = serve([trace], hot_threshold, 0, short_of_wrap)
        assert serve([trace], hot_threshold, None, short_of_wrap) == reference
        assert serve(parts, hot_threshold, serve_batch,
                     short_of_wrap) == reference
