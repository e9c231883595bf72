"""Output checks whose reference is never the code under test.

Runs after the timed region. Three kinds of reference:

* the tree-walking interpreter (``engine="interp"``): every data-plane
  workload replays its first 20 000 packets twice from fresh state —
  once exactly as the workload ran them, once with ``engine="interp"``
  and otherwise identical arguments — and requires identical stats and
  bit-identical register dumps;
* the numpy reference structures: streaming serves equal a
  ``simulate_netcache`` replay, the sharded CMS registers equal
  ``CountMinSketch`` fed the same keys;
* for compiles, ``validate_layout``, the solver status, the greedy
  first-fit objective and the objectives recorded in ``expected.json``.

Each check counts the operations it covers as attempted and, on a
mismatch, all of them as failed.
"""

import numpy as np

from repro.apps import netcache_linked, simulate_netcache
from repro.core import (
    LayoutValidationError,
    compile_linked_greedy,
    compile_source_greedy,
    validate_layout,
)
from repro.fabric import FleetConfig
from repro.pisa import Pipeline
from repro.runtime import RuntimeConfig
from repro.structures import CountMinSketch
from repro.workloads.churn import ChurningZipf
from repro.workloads.zipf import ZipfGenerator

from workloads import EXPECTED, CompileCold

__all__ = ["Tally", "CHECKS"]

#: packets each interpreter replay covers
REPLAY = 20_000


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, notes) -> None:
        self.attempted += attempted
        self.failed += failed
        self.notes.extend(notes)

    def expect(self, ok: bool, covers: int, what: str) -> None:
        self.add(covers, 0 if ok else covers, [] if ok else [what])


def _registers_equal(a: Pipeline, b: Pipeline) -> bool:
    left, right = a.registers.export_state(), b.registers.export_state()
    return left.keys() == right.keys() and all(
        np.array_equal(left[name], right[name]) for name in left)


def _stats(stats) -> tuple:
    return (stats.packets, stats.hits, stats.insertions, stats.evictions,
            stats.rejected_insertions)


def _reference_hits(compiled, keys, hot_threshold: int) -> int:
    symbols = compiled.symbol_values
    return simulate_netcache(
        symbols["cms_rows"], symbols["cms_cols"], symbols["kv_rows"],
        symbols["kv_cols"], keys, hot_threshold=hot_threshold).hits


def _greedy_objective(program: str, target) -> float:
    """First-fit objective, or ``-inf`` where first-fit has no valid
    layout to offer (it overfills a stage with NetCache's routing table
    on ``t6``): then there is no greedy bar to clear."""
    try:
        if program == "netcache-linked":
            return compile_linked_greedy(
                netcache_linked(with_routing=False), target).solution.objective
        return compile_source_greedy(
            CompileCold.SOURCES[program](), target).solution.objective
    except LayoutValidationError:
        return float("-inf")


def check_artifacts(w, tally: Tally) -> None:
    """Every cold compile: validate_layout-clean, OPTIMAL, no worse than
    greedy first-fit and than the recorded objective."""
    for key, compiled in w.artifacts().items():
        problems = []
        try:
            validate_layout(compiled)
        except LayoutValidationError as exc:
            problems.append(f"invalid layout ({exc})")
        if not compiled.solution.ok:
            problems.append(f"status {compiled.solution.status.value}")
        objective = compiled.solution.objective
        greedy = _greedy_objective(key.rpartition(".")[0], compiled.target)
        if objective < greedy:
            problems.append(f"objective {objective} below greedy {greedy}")
        if objective < EXPECTED[key] * (1 - 1e-6):
            problems.append(
                f"objective {objective} below recorded {EXPECTED[key]}")
        tally.expect(not problems, 1, f"{key}: " + "; ".join(problems))


def check_compile_cold(w, tally: Tally) -> None:
    keys = np.concatenate(w.traces)
    threshold = w.app.hot_threshold
    tally.expect(
        _reference_hits(w.app.compiled, keys, threshold)
        == sum(s.hits for s in w.serve_stats),
        len(keys), "streaming serve differs from simulate_netcache")
    prefix = keys[:REPLAY]
    replica, interp = w.serve_app(), w.serve_app(engine="interp")
    same = (_stats(replica.run_trace(prefix))
            == _stats(interp.run_trace(prefix))
            and _registers_equal(replica.pipeline, interp.pipeline))
    tally.expect(same, len(prefix), "serve differs from the interpreter")


def check_runtime_reconfig(w, tally: Tally) -> None:
    # Streaming serve up to the first target change, on the initial layout.
    before_cut = w.WINDOW + w.segment
    keys = ChurningZipf(2000, alpha=1.3, seed=w.seed).sample(before_cut)
    windows = w.segment // w.WINDOW
    served_hits = w.warmup.hits + round(
        sum(w.report.timeline[:windows]) * w.WINDOW)
    tally.expect(
        _reference_hits(w.planner.plans[0][2].compiled, keys,
                        RuntimeConfig().hot_threshold) == served_hits,
        before_cut, "serve before the first cut differs from "
        "simulate_netcache")

    replay = min(REPLAY, w.packets)
    outcomes = []
    for engine in (None, "interp"):
        # Same planner cache: the replay's layouts are the run's own.
        runtime, _planner, stream, _init_s = w.make(
            engine=engine, cache=w.planner.cache)
        report = runtime.run(stream, w.WINDOW)
        report = runtime.run(stream, replay, report=report)
        outcomes.append((runtime, report))
    (replica, ours), (interp, theirs) = outcomes
    same = (ours.hits == theirs.hits and ours.timeline == theirs.timeline
            and ours.final_symbols == theirs.final_symbols
            and _registers_equal(replica.app.pipeline, interp.app.pipeline))
    tally.expect(same, replay, "replay differs from the interpreter")
    tally.expect(
        ours.timeline[1:] == w.report.timeline[:replay // w.WINDOW],
        replay, "replay differs from the timed run")


def check_fleet_zipf(w, tally: Tally) -> None:
    # Before the cut (at 1/4) nothing reconfigures or migrates.
    replay = max(w.WINDOW,
                 min(REPLAY, w.packets // 4) // w.WINDOW * w.WINDOW)
    outcomes = []
    for engine in (None, "interp"):
        fleet, _plans, stream, _install_s = w.make(
            engine=engine, cache=w.fleet.cache)
        report = fleet.run(stream, w.WINDOW)
        report = fleet.run(stream, replay, report=report)
        outcomes.append((fleet, report))
    (replica, ours), (interp, theirs) = outcomes
    try:
        same = ours.timeline == theirs.timeline
        for name, stats in ours.per_switch.items():
            other = theirs.per_switch[name]
            same = same and (stats.packets, stats.hits) == (
                other.packets, other.hits)
            app = replica.topology.node(name).app
            same = same and _registers_equal(
                app.pipeline, interp.topology.node(name).app.pipeline)
        tally.expect(same, replay, "replay differs from the interpreter")
        tally.expect(
            ours.timeline[1:] == w.report.timeline[:replay // w.WINDOW],
            replay, "replay differs from the timed run")

        # Per switch, the streaming serve equals the reference structures
        # fed that switch's share of the keys, in order.
        regen = ZipfGenerator(10_000, alpha=0.9, seed=w.seed)
        shares: dict[str, list] = {}
        for _ in range(1 + replay // w.WINDOW):
            for name, part in replica.ring.shard(
                    regen.sample(w.WINDOW)).items():
                shares.setdefault(name, []).append(part)
        for name, parts in shares.items():
            keys = np.concatenate(parts)
            compiled = replica.topology.node(name).app.compiled
            tally.expect(
                _reference_hits(compiled, keys, FleetConfig().hot_threshold)
                == ours.per_switch[name].hits,
                len(keys), f"{name}: serve differs from simulate_netcache")
    finally:
        replica.close()
        interp.close()


def check_netcache_batched(w, tally: Tally) -> None:
    prefix = w.traces[0][:REPLAY]
    outcomes = []
    for engine in ("vector", "interp"):
        app = w.make(engine=engine, compiled=w.app.compiled)
        app.run_trace(w.warm_keys, serve_batch=w.SERVE_BATCH)
        stats = app.run_trace(prefix, serve_batch=w.SERVE_BATCH)
        outcomes.append((app, stats))
    (replica, ours), (interp, theirs) = outcomes
    same = (_stats(ours) == _stats(theirs)
            and _registers_equal(replica.pipeline, interp.pipeline))
    tally.expect(same, len(prefix), "replay differs from the interpreter")


def check_cms_sharded_w2(w, tally: Tally) -> None:
    symbols = w.compiled.symbol_values
    reference = CountMinSketch(symbols["cms_rows"], symbols["cms_cols"])
    reference.update_many(w.keys)
    passes = 1 + w.batches          # the warm-up batch counts too
    same = all(
        np.array_equal(
            w.pipe.register_dump("cms_sketch", row).astype(np.uint64),
            (reference.table[row] * np.uint64(passes)) & reference.mask)
        for row in range(symbols["cms_rows"]))
    tally.expect(same, w.batches * w.batch_packets,
                 "sharded registers differ from the numpy CountMinSketch")

    prefix = w.packets[:REPLAY]
    with Pipeline(w.compiled, engine="vector") as replica, \
            Pipeline(w.compiled, engine="interp") as interp:
        served = (w.batch(replica, prefix), w.batch(interp, prefix))
        same = (served == (len(prefix), len(prefix))
                and _registers_equal(replica, interp))
    tally.expect(same, len(prefix), "replay differs from the interpreter")


CHECKS = {
    "compile-cold": check_compile_cold,
    "runtime-reconfig": check_runtime_reconfig,
    "fleet-zipf": check_fleet_zipf,
    "netcache-batched": check_netcache_batched,
    "cms-sharded-w2": check_cms_sharded_w2,
}
