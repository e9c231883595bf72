"""Simulator microbenchmarks (not a paper figure).

Packet-processing throughput of all three pipeline engines — the
tree-walking reference interpreter, the compiled execution-plan engine,
and the columnar vector engine — plus the flow-sharded multiprocess
fan-out at 1/2/4 workers and the vectorized reference sketch for
context. Emits ``BENCH_interp.json`` with the headline numbers
(packets/s per configuration and the speedups), the artifact CI uploads
from its benchmark smoke step.

Rates are derived from the ``benchmark`` fixture's statistics (min time
over warmed rounds), not a single un-warmed wall-clock run — the old
approach was flaky on loaded machines.

Sharded rows carry two rates side by side: **wall** — honest wall-clock
packets/s, the number the CI gate enforces — and **modeled** — a
makespan aggregate (``packets / max(per-worker busy seconds)`` from
``pipeline.last_shard_report``) that models the fan-out on a host with
at least ``workers`` free cores. On a single-core runner the workers
time-slice one core, so wall-clock cannot show core scaling; the model
uses each worker's measured CPU seconds and assumes only that the
workers overlap. The busy seconds come from the pooled run itself
(:mod:`repro.pisa.pool`): workers are forked once per pipeline, so
their CPU time carries no per-batch startup cost.

The sharded baseline (``sharded_vector_baseline_pkts_per_s``) is the
single-process vector engine *at the sharded batch size*: the vector
row's ``PACKETS``-sized batch runs hotter per packet (smaller working
set), so comparing sharded wall-clock against it would mix batch-size
effects into the fan-out ratio. ``wall_speedup_over_vector`` and the
per-worker-count ``sharded_w{N}_wall_speedup_over_vector`` ratios —
what the sim-bench CI gate reads (≥ 0.9 everywhere, ≥ 2.0 at 4 workers
on multi-core runners) — divide same-sized batches only.
"""

import json
from pathlib import Path

import numpy as np

from repro.core import compile_source
from repro.pisa import Packet, Pipeline, small_target
from repro.structures import CMS_SOURCE, CountMinSketch

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_interp.json"

PACKETS = 2000
SHARD_PACKETS = 20_000


def _cms_setup(n=PACKETS):
    compiled = compile_source(CMS_SOURCE, small_target(stages=6, memory_kb=32))
    packets = [Packet(fields={"flow_id": i % 997}) for i in range(n)]
    return compiled, packets


def _measure(benchmark, engine: str) -> float:
    compiled, packets = _cms_setup()
    pipe = Pipeline(compiled, engine=engine)

    benchmark.pedantic(
        lambda: pipe.process_many(packets, collect=False),
        rounds=5, iterations=1, warmup_rounds=1,
    )
    return PACKETS / benchmark.stats.stats.min


def _record(updates: dict) -> dict:
    """Merge results into ``BENCH_interp.json``.

    Each configuration runs as a separate benchmark test (so
    pytest-benchmark compares them in its own table); the JSON is built
    incrementally and whichever test runs last fills in the speedups.
    """
    payload = {}
    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
    payload.setdefault("benchmark", "cms-microbenchmark")
    payload.setdefault("packets", PACKETS)
    payload.update(updates)
    if "interp_pkts_per_s" in payload and "compiled_pkts_per_s" in payload:
        payload["speedup"] = (
            payload["compiled_pkts_per_s"] / payload["interp_pkts_per_s"]
        )
    if "compiled_pkts_per_s" in payload and "vector_pkts_per_s" in payload:
        payload["vector_speedup_over_compiled"] = (
            payload["vector_pkts_per_s"] / payload["compiled_pkts_per_s"]
        )
    if ("vector_pkts_per_s" in payload
            and "sharded_w4_modeled_pkts_per_s" in payload):
        payload["sharded_w4_modeled_speedup_over_vector"] = (
            payload["sharded_w4_modeled_pkts_per_s"]
            / payload["vector_pkts_per_s"]
        )
    # Wall-clock fan-out ratios against the same-sized single-process
    # vector baseline — the numbers the sim-bench CI gate enforces.
    baseline = payload.get("sharded_vector_baseline_pkts_per_s")
    if baseline:
        for w in (1, 2, 4):
            key = f"sharded_w{w}_pkts_per_s"
            if key in payload:
                payload[f"sharded_w{w}_wall_speedup_over_vector"] = (
                    payload[key] / baseline
                )
        if "sharded_w4_pkts_per_s" in payload:
            payload["wall_speedup_over_vector"] = (
                payload["sharded_w4_pkts_per_s"] / baseline
            )
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_interp_packet_throughput(benchmark):
    rate = _measure(benchmark, "interp")
    _record({"interp_pkts_per_s": rate})
    print(f"\npipeline interpreter: ~{rate:,.0f} packets/s (CMS)")
    assert rate > 1_000  # interpreter keeps trace-scale tests viable


def test_compiled_packet_throughput(benchmark):
    rate = _measure(benchmark, "compiled")
    payload = _record({"compiled_pkts_per_s": rate})
    print(f"\ncompiled plan engine: ~{rate:,.0f} packets/s (CMS)")
    if "speedup" in payload:
        print(f"speedup over interpreter: {payload['speedup']:.1f}x")
    assert rate > 10_000

    # Acceptance bar for the compiled engine: at least 10x the
    # interpreter on the CMS microbenchmark (both rates measured the
    # same way in this session).
    if "speedup" in payload:
        assert payload["speedup"] >= 10.0, payload


def test_vector_packet_throughput(benchmark):
    rate = _measure(benchmark, "vector")
    payload = _record({"vector_pkts_per_s": rate})
    print(f"\nvector engine: ~{rate:,.0f} packets/s (CMS)")
    if "vector_speedup_over_compiled" in payload:
        print("speedup over compiled: "
              f"{payload['vector_speedup_over_compiled']:.1f}x")

    # Hard gate: the columnar engine must never regress below the
    # scalar compiled engine it replaces on the batched path.
    if "compiled_pkts_per_s" in payload:
        assert rate >= payload["compiled_pkts_per_s"], payload


def _timed(run):
    import time

    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0


def test_sharded_throughput(benchmark):
    """Vector engine behind the persistent-pool fan-out, 1/2/4 workers.

    One pytest-benchmark entry (workers=4 wall-clock); the baseline,
    the 1/2-worker rows and the makespan models are measured inline
    and merged into the JSON, since the fixture allows one benchmark
    per test.

    Every recorded rate comes from the *same* interleaved measurement
    loop: each round times baseline, w1, w2, w4 back to back, and each
    config keeps its best round. On frequency-scaled hosts the clock
    drifts over the session; measuring the configs sequentially would
    hand whichever ran at the higher clock a phantom speedup, which on
    a gated ratio means flaky CI. Interleaving exposes every config to
    the same drift.
    """
    import time

    compiled, packets = _cms_setup(SHARD_PACKETS)
    results = {}
    rows = []

    # Spin briefly so a frequency-scaled core is at speed before any
    # timing starts.
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 1.0:
        sum(range(10_000))

    # Single-process vector at the SAME batch size: the denominator of
    # every wall-clock fan-out ratio (see module docstring).
    base_pipe = Pipeline(compiled, engine="vector")
    pool_pipes = {w: Pipeline(compiled, engine="vector") for w in (1, 2, 4)}

    def base_run():
        base_pipe.process_many(packets, collect=False)

    def pool_run(workers):
        pool_pipes[workers].process_many(
            packets, collect=False, workers=workers)

    runs = [("base", base_run)] + [
        (w, lambda w=w: pool_run(w)) for w in (1, 2, 4)]
    for _ in range(2):  # warmup; first pooled call also spawns workers
        for _, run in runs:
            run()
    best = {}
    for _ in range(6):
        for key, run in runs:
            dt = _timed(run)
            best[key] = min(best.get(key, dt), dt)

    baseline = SHARD_PACKETS / best["base"]
    results["sharded_vector_baseline_pkts_per_s"] = baseline
    rows.append(("vector 1p", baseline, baseline))

    for workers in (1, 2, 4):
        pipe = pool_pipes[workers]
        wall = SHARD_PACKETS / best[workers]
        if workers == 1:
            modeled = wall
        else:
            # Makespan model: workers overlap, so the batch completes
            # when the busiest worker does. Pool workers report their
            # own CPU seconds.
            report = pipe.last_shard_report
            assert report["mode"] == "pool", report
            modeled = SHARD_PACKETS / max(report["busy_seconds"])
        results[f"sharded_w{workers}_pkts_per_s"] = wall
        results[f"sharded_w{workers}_modeled_pkts_per_s"] = modeled
        rows.append((f"pool w{workers}", wall, modeled))

    # The pytest-benchmark fixture entry (w4 wall-clock) — recorded
    # rates above come from the interleaved loop, not this.
    benchmark.pedantic(lambda: pool_run(4), rounds=3, iterations=1)
    for pipe in pool_pipes.values():
        pipe.close()

    payload = _record(results)
    print(f"\nsharded throughput ({SHARD_PACKETS:,} packets):")
    print(f"  {'config':<10} {'wall pkt/s':>14} {'modeled pkt/s':>14} "
          f"{'wall/vector':>12}")
    for label, wall, modeled in rows:
        ratio = f"{wall / baseline:.2f}x"
        print(f"  {label:<10} {wall:>14,.0f} {modeled:>14,.0f} {ratio:>12}")
    if "wall_speedup_over_vector" in payload:
        print("wall w4 speedup over single-process vector: "
              f"{payload['wall_speedup_over_vector']:.2f}x")


def test_reference_sketch_throughput(benchmark):
    cms = CountMinSketch(rows=4, cols=4096)
    keys = np.random.default_rng(1).integers(1, 1 << 20, size=100_000)

    benchmark.pedantic(lambda: cms.update_many(keys),
                       rounds=5, iterations=1, warmup_rounds=1)
    rate = len(keys) / benchmark.stats.stats.min
    print(f"\nvectorized reference sketch: ~{rate:,.0f} updates/s")
    assert rate > 100_000
