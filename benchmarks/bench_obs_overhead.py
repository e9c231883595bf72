"""Observability overhead microbenchmark (not a paper figure).

The tracing layer must be effectively free when it is off: the compiled
engine's batch path pays one attribute check and a shared no-op span per
``process_many`` call, and ``process`` (the per-packet hot path) is
never instrumented at all. This benchmark measures

* the raw cost of entering a *disabled* span,
* compiled-engine throughput through the instrumented ``process_many``
  wrapper (tracer disabled) vs the uninstrumented batch body,
* throughput with the tracer *enabled*, for context,
* the worker-pool path with cross-process obs shipping vs the same
  path with the capture/merge machinery stubbed out (tracer off), and
* the always-on flight recorder vs the ring disabled.

Emits ``BENCH_obs.json``. Acceptance: the disabled-tracer overhead on
the compiled engine stays under 2%, the pool path's obs shipping under
2%, and the flight recorder under 5%.
"""

import json
import multiprocessing as mp
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core import compile_source
from repro.pisa import Packet, Pipeline, small_target
from repro.structures import CMS_SOURCE

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_obs.json"

PACKETS = 2000
ROUNDS = 7
SPAN_LOOP = 10_000


def _cms_pipeline(engine: str = "compiled"):
    compiled = compile_source(CMS_SOURCE, small_target(stages=6, memory_kb=32))
    packets = [Packet(fields={"flow_id": i % 997}) for i in range(PACKETS)]
    return Pipeline(compiled, engine=engine), packets


def _best_rate(fn, rounds: int = ROUNDS) -> float:
    """Packets/s from the best of ``rounds`` warmed runs."""
    fn()  # warmup
    best = min(_timed(fn) for _ in range(rounds))
    return PACKETS / best


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _paired_overhead(fn_slow, fn_fast, rounds: int = 2 * ROUNDS + 1,
                     packets: int = PACKETS) -> tuple[float, float, float]:
    """``(rate_slow, rate_fast, overhead_fraction)`` for two bodies.

    The bodies run in adjacent pairs and the overhead is the *median*
    per-pair time ratio: ambient load hits both halves of a pair alike,
    and the median discards the pairs a scheduler hiccup still skews —
    comparing two independent best-of-N windows flaps on a busy host.
    Rates are best-of-rounds, for reporting.
    """
    fn_slow()
    fn_fast()  # warmup both
    times_slow, times_fast, ratios = [], [], []
    for _ in range(rounds):
        a = _timed(fn_slow)
        b = _timed(fn_fast)
        times_slow.append(a)
        times_fast.append(b)
        ratios.append(a / b)
    ratios.sort()
    overhead = max(0.0, ratios[len(ratios) // 2] - 1.0)
    return packets / min(times_slow), packets / min(times_fast), overhead


def _record(updates: dict) -> dict:
    """Merge results into ``BENCH_obs.json`` (tests run independently)."""
    payload = {}
    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
    payload.setdefault("benchmark", "obs-overhead")
    payload.setdefault("packets", PACKETS)
    payload.update(updates)
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_disabled_span_is_near_free(benchmark):
    obs.trace.disable()

    def loop():
        span = obs.trace.span
        for _ in range(SPAN_LOOP):
            with span("bench"):
                pass

    benchmark.pedantic(loop, rounds=5, iterations=1, warmup_rounds=1)
    per_span = benchmark.stats.stats.min / SPAN_LOOP
    _record({"disabled_span_seconds": per_span})
    print(f"\ndisabled span: ~{per_span * 1e9:,.0f} ns per entry")
    assert len(obs.trace) == 0
    assert per_span < 5e-6  # well under a batch's noise floor


def test_disabled_tracer_overhead_on_compiled_engine(benchmark):
    """Instrumented batch path vs the uninstrumented body, tracer off."""
    obs.trace.disable()
    pipe, packets = _cms_pipeline()

    benchmark.pedantic(
        lambda: pipe.process_many(packets, collect=False),
        rounds=ROUNDS, iterations=1, warmup_rounds=1,
    )
    wrapped, raw, overhead = _paired_overhead(
        lambda: pipe.process_many(packets, collect=False),
        lambda: pipe._process_many(packets, False, None),
    )
    payload = _record({
        "disabled_pkts_per_s": wrapped,
        "raw_pkts_per_s": raw,
        "disabled_overhead_fraction": overhead,
    })
    print(f"\ncompiled engine, tracer disabled: ~{wrapped:,.0f} packets/s")
    print(f"uninstrumented batch body:        ~{raw:,.0f} packets/s")
    print(f"disabled-instrumentation overhead: {overhead:.2%}")
    assert len(obs.trace) == 0

    # Acceptance bar: the disabled tracer costs the compiled engine
    # less than 2% (both rates measured the same way in this session).
    assert payload["disabled_overhead_fraction"] < 0.02, payload


def test_pool_disabled_obs_overhead(benchmark):
    """Worker-pool batch path: obs shipping on vs stubbed out, tracer off.

    With the tracer disabled a pooled batch still ships per-worker
    metric deltas over the control pipe. The baseline stubs the capture
    and merge hooks *before* its pool forks (children inherit the
    stubs), so the difference is exactly the shipping cost.
    """
    if "fork" not in mp.get_all_start_methods():
        pytest.skip("worker pool needs the fork start method")
    obs.trace.disable()
    # A bigger batch than the single-process legs: per-batch obs
    # shipping is a fixed cost, and the pool's per-batch wall time is
    # noisy enough that a 2k batch can't resolve a 2% bound.
    pool_packets = [Packet(fields={"flow_id": i % 997})
                    for i in range(PACKETS * 4)]
    pipe, _ = _cms_pipeline(engine="vector")

    from repro.obs.aggregate import WorkerObsCapture
    from repro.pisa import pool as pool_mod

    # Stub the worker-side capture while the baseline pool forks — its
    # children inherit the no-ops, so their batches ship None and the
    # parent merge returns immediately. Restored before measuring.
    orig_begin = WorkerObsCapture.begin
    orig_finish = WorkerObsCapture.finish
    WorkerObsCapture.begin = lambda self, ctl=None: None
    WorkerObsCapture.finish = lambda self: None
    base_pipe, _ = _cms_pipeline(engine="vector")
    try:
        base_pipe.process_many(pool_packets, collect=False, workers=2)
        assert base_pipe.last_shard_report["mode"] == "pool", \
            base_pipe.last_shard_report
    finally:
        WorkerObsCapture.begin = orig_begin
        WorkerObsCapture.finish = orig_finish

    try:
        benchmark.pedantic(
            lambda: pipe.process_many(pool_packets, collect=False,
                                      workers=2),
            rounds=ROUNDS, iterations=1, warmup_rounds=1,
        )
        assert pipe.last_shard_report["mode"] == "pool", \
            pipe.last_shard_report
        instrumented, raw, overhead = _paired_overhead(
            lambda: pipe.process_many(pool_packets, collect=False,
                                      workers=2),
            lambda: base_pipe.process_many(pool_packets, collect=False,
                                           workers=2),
            packets=len(pool_packets),
        )
    finally:
        pipe.close()
        base_pipe.close()
    payload = _record({
        "pool_pkts_per_s": instrumented,
        "pool_raw_pkts_per_s": raw,
        "pool_obs_overhead_fraction": overhead,
    })
    print(f"\npool path, obs shipping on:  ~{instrumented:,.0f} packets/s")
    print(f"pool path, shipping stubbed: ~{raw:,.0f} packets/s")
    print(f"pool obs-shipping overhead: {overhead:.2%}")
    assert payload["pool_obs_overhead_fraction"] < 0.02, payload


def test_flight_recorder_overhead(benchmark):
    """Always-on flight ring vs the ring disabled, tracer off."""
    obs.trace.disable()
    pipe, packets = _cms_pipeline()
    obs.flight.enabled = True
    benchmark.pedantic(
        lambda: pipe.process_many(packets, collect=False),
        rounds=ROUNDS, iterations=1, warmup_rounds=1,
    )
    def with_flight():
        obs.flight.enabled = True
        pipe.process_many(packets, collect=False)

    def without_flight():
        obs.flight.enabled = False
        pipe.process_many(packets, collect=False)

    try:
        enabled_rate, disabled_rate, overhead = _paired_overhead(
            with_flight, without_flight)
    finally:
        obs.flight.enabled = True
        obs.flight.clear()
    payload = _record({
        "flight_pkts_per_s": enabled_rate,
        "flight_off_pkts_per_s": disabled_rate,
        "flight_overhead_fraction": overhead,
    })
    print(f"\nflight recorder on:  ~{enabled_rate:,.0f} packets/s")
    print(f"flight recorder off: ~{disabled_rate:,.0f} packets/s")
    print(f"flight-recorder overhead: {overhead:.2%}")
    assert payload["flight_overhead_fraction"] < 0.05, payload


def test_enabled_tracer_overhead_for_context(benchmark):
    """Advisory: cost of actually recording one span per batch."""
    pipe, packets = _cms_pipeline()
    obs.trace.enable()
    try:
        def run():
            obs.trace.reset()
            pipe.process_many(packets, collect=False)

        benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=1)
        enabled = PACKETS / benchmark.stats.stats.min
    finally:
        obs.trace.disable()
        obs.trace.reset()
    payload = _record({"enabled_pkts_per_s": enabled})
    print(f"\ncompiled engine, tracer enabled: ~{enabled:,.0f} packets/s")
    if "disabled_pkts_per_s" in payload:
        frac = max(0.0, 1.0 - enabled / payload["disabled_pkts_per_s"])
        payload = _record({"enabled_overhead_fraction": frac})
        print(f"enabled-tracer overhead: {frac:.2%}")
