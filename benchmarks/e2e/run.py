"""One end-to-end + per-layer benchmark through the public entry points.

    python3 benchmarks/e2e/run.py                      # every workload, once
    python3 benchmarks/e2e/run.py --repeats 10 --out A.json
    python3 benchmarks/e2e/run.py --workload fleet-zipf --seed 3 --trace 1
    python3 benchmarks/e2e/run.py compare A.json B.json

``--workload`` measures one workload in this interpreter and prints, as
the last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — every end-to-end metric of BENCHMARK.json
with ``--trace 0``, every per-layer metric with ``--trace 1``. Without
``--workload`` each workload runs in a fresh interpreter and the medians
are tabulated. See README.md beside this file for the glossary.
"""

import time

T_START = time.perf_counter()   # set-up time counts from here

import argparse
import atexit
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one workload, this interpreter -------------------------------------------------

def scrub_env() -> list[str]:
    """Drop every ``REPRO_*`` variable (engine, batch, worker, shard-mode,
    trace and flight-recorder overrides): the benchmark measures program
    defaults. Returns the names dropped."""
    dropped = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in dropped:
        del os.environ[name]
    assert not any(name.startswith("REPRO_") for name in os.environ)
    return dropped


@contextmanager
def stdout_to_stderr():
    """HiGHS prints ``HighsMipSolverData::…`` chatter on the C-level
    stdout mid-compile; send everything to stderr while measuring so the
    result stays the last line of the real stdout."""
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        sys.stdout.flush()
        ctypes.CDLL(None).fflush(None)
        os.dup2(saved, 1)
        os.close(saved)


def stop_children() -> None:
    """Stop and reap every process this run started. Registered with
    ``atexit`` before anything else is, so it runs last: after the pool
    finalizers and multiprocessing's own exit hook. What is left by then
    is a worker a failed run stranded and multiprocessing's resource
    tracker, which the shared-memory pool starts and which would
    otherwise outlive this process by a moment."""
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is None:
        return
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is not None:
        # Closes the tracker's pipe, which ends it, and waits for it.
        tracker_module._resource_tracker._stop()


def provenance(args, dropped: list[str]) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"      # a bare checkout is not a git repository
    return {
        "commit": commit, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "seed": args.seed,
        "seconds": args.seconds, "scrubbed_env": dropped,
    }


def run_check(w, name: str):
    """The oracle's tally of ``w`` and how long it took."""
    import oracle

    tally = oracle.Tally()
    t0 = time.perf_counter()
    tally.add(*w.failed_ops())
    oracle.check_artifacts(w, tally)
    oracle.CHECKS[name](w, tally)
    return tally, time.perf_counter() - t0


def measure(name: str, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics."""
    import workloads
    from spans import Recorder

    # Solver warm-up: load scipy/HiGHS now so no compile below pays for
    # the import.
    workloads.compile_source(workloads.CMS_SOURCE, workloads.t6())
    import_s = time.perf_counter() - T_START
    w = workloads.WORKLOADS[name](seed, seconds, Recorder(name))
    try:
        build_s = []
        for _ in range(w.setup_reps):
            gc.collect()
            build_s.append(workloads.timed(w.build)[1])
        w.run_wall = workloads.timed(w.run)[1]
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tally, check_s = run_check(w, name)
    finally:
        w.close()
    packets, unit_s = w.units()
    children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    extra = {"run_s": w.run_wall, "check_s": check_s,
             "failed_frac": tally.failed / tally.attempted}
    samples = {"setup_s": len(build_s), "pkts_per_s": len(unit_s),
               "compile_s": w.compile_samples()}
    if hasattr(w, "hit_rate"):
        extra["hit_rate"] = w.hit_rate()
    if hasattr(w, "reconfig_seconds"):
        extra["reconfig_s"] = w.reconfig_seconds()
        samples["reconfig_s"] = len(w.first_seen)
    return {
        "metrics": {
            "setup_s": import_s + statistics.median(build_s),
            "pkts_per_s": packets / workloads.fast_unit(unit_s),
            "compile_s": w.compile_seconds(),
            "utility_rel": workloads.utility_rel(w.artifacts()),
            # This process's high-water mark before the oracle builds
            # its replicas, plus its largest reaped child (pool workers).
            "peak_rss_mb": (own_rss + children_rss) / 1024.0,
        },
        "tally": tally, "extra": extra, "samples": samples,
    }


def measure_traced(name: str, seed: int, seconds: float) -> dict:
    """Traced run: the workload twice at half size — spans off, then on
    — then the per-layer rows. The tracing overhead is the ratio of the
    two passes' unit walls: the first pass in a process runs its first
    units slower whichever pass it is, which a ratio of whole walls
    would book as negative overhead."""
    import workloads
    from spans import Recorder

    workloads.compile_source(workloads.CMS_SOURCE, workloads.t6())
    cls = workloads.WORKLOADS[name]
    rec = Recorder(name)
    plain = cls(seed, seconds / 2, rec)
    try:
        plain.build()
        plain_wall = workloads.timed(plain.run)[1]
    finally:
        plain.close()
    plain_unit = workloads.fast_unit(plain.units()[1])
    del plain           # the second pass starts from the same heap
    gc.collect()
    w = cls(seed, seconds / 2, rec)
    try:
        rec.enabled = True
        w.build()
        with rec.span("bench.run", "bench"):
            w.run_wall = workloads.timed(w.run)[1]
        rows = w.layers()
        rec.enabled = False
        tally, check_s = run_check(w, name)
    finally:
        w.close()
    rows["bench.trace_overhead_frac"] = (
        workloads.fast_unit(w.units()[1]) / plain_unit - 1.0)
    # Only the bench.run root is in the "bench" layer: its self time is
    # the traced wall no layer span covers.
    self_s = rec.self_seconds()
    rows["bench.unattributed_frac"] = self_s["bench"] / w.run_wall
    rows["bench.check_s"] = check_s
    return {
        "metrics": rows, "tally": tally,
        "extra": {"traced_run_s": w.run_wall,
                  "untraced_run_s": plain_wall,
                  "layer_self_s": self_s},
        "samples": {"spans": len(rec.spans)},
        "traceEvents": rec.chrome_events(),
    }


def run_one(args, spec: dict) -> int:
    atexit.register(stop_children)
    dropped = scrub_env()
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: {src}/repro not found — the benchmark builds nothing "
              "and needs the full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    traced = bool(args.trace)
    with stdout_to_stderr():
        measured = (measure_traced if traced else measure)(
            args.workload, args.seed, args.seconds)
        prov = provenance(args, dropped)

    declared = spec["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    values = measured["metrics"]
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise SystemExit(f"error: metrics not in BENCHMARK.json: {undeclared}")
    # A layer the workload never enters did no work: its rows read 0.
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    tally = measured["tally"]
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}

    print(f"# {args.workload}  seed={args.seed} seconds={args.seconds:g} "
          f"trace={int(traced)}  commit={prov['commit'][:12]}")
    for name in values:
        print(f"  {name:<40} {metrics[name]['value']:>16.6g} "
              f"{metrics[name]['unit']}")
    for name, value in measured["extra"].items():
        if not isinstance(value, dict):
            print(f"  ({name:<38} {value:>16.6g})")
    for note in tally.notes:
        print(f"  FAILED: {note}")
    if args.out:
        full = dict(result, workload=args.workload, trace=int(traced),
                    extra=measured["extra"], samples=measured["samples"],
                    notes=tally.notes, provenance=prov)
        if traced:
            full["traceEvents"] = measured["traceEvents"]
        Path(args.out).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0


# -- every workload, a fresh interpreter each -----------------------------------------

def spread(values) -> float | None:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=True)
    *table, last = done.stdout.rstrip("\n").split("\n")
    print("\n".join(table), flush=True)
    return json.loads(last)


def run_all(args, spec: dict) -> int:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": [args.seed + i
                                                 for i in range(args.repeats)],
              "nproc": os.cpu_count(), "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_child(workload, seed, args.seconds, 0)
                for seed in report["seeds"]]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}}
        ok = ok and all(r["correct"] for r in runs)
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = {
                "values": values, "median": statistics.median(values),
                "spread": spread(values), "unit": meta["unit"]}
        if args.trace:
            traced = run_child(workload, args.seed, args.seconds, 1)
            ok = ok and traced["correct"]
            entry["per_layer"] = {name: m["value"]
                                  for name, m in traced["metrics"].items()}
        report["workloads"][workload] = entry

    print(f"\n{'workload':<18}{'metric':<14}{'median':>14} {'unit':<7}"
          f"{'spread':>8}{'bound':>8}  n")
    for workload, entry in report["workloads"].items():
        for name, cell in entry["end_to_end"].items():
            shown = ("-" if cell["spread"] is None
                     else f"{cell['spread']:.4f}")
            print(f"{workload:<18}{name:<14}{cell['median']:>14.6g} "
                  f"{cell['unit']:<7}{shown:>8}{bounds[name]['bound']:>8g}  "
                  f"{len(cell['values'])}")
        print(f"{workload:<18}{'failed_frac':<14}"
              f"{entry['failed'] / entry['attempted']:>14.6g}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


# -- compare two sets --------------------------------------------------------------

def compare(args, spec: dict) -> int:
    """Per workload × end-to-end metric: both medians, how much worse B
    is than A as a share of A, the bound, and a verdict."""
    a, b = (json.loads(Path(p).read_text())["workloads"]
            for p in (args.a, args.b))
    regressed = False
    print(f"{'workload':<18}{'metric':<14}{'A':>14}{'B':>14}{'worse by':>10}"
          f"{'bound':>8}  verdict")
    for workload in a:
        for meta in spec["end_to_end"]:
            name, bound = meta["name"], meta["bound"]
            left = a[workload]["end_to_end"][name]
            right = b[workload]["end_to_end"][name]
            worse = (right["median"] - left["median"]) / abs(left["median"])
            if meta["better"] == "higher":
                worse = -worse
            sign = 1 if meta["better"] == "lower" else -1
            b_always_better = (max(sign * v for v in right["values"])
                               < min(sign * v for v in left["values"]))
            noisy = any(cell["spread"] is not None and cell["spread"] > bound
                        for cell in (left, right))
            if worse > bound:
                verdict, regressed = "regressed", True
            elif noisy and not b_always_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:<18}{name:<14}{left['median']:>14.6g}"
                  f"{right['median']:>14.6g}{worse:>+10.4f}{bound:>8g}  "
                  f"{verdict}")
    return 1 if regressed else 0


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="nominal length of the timed region; sizes "
                        "scale with it")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies --seconds (0.02 = smoke test)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload, seeds seed..seed+n-1 "
                        "(all-workloads mode)")
    parser.add_argument("--out", help="write the full result JSON here")
    sub = parser.add_subparsers(dest="command")
    cmp_parser = sub.add_parser("compare", help=compare.__doc__)
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    args = parser.parse_args()
    args.seconds *= args.scale
    if args.command == "compare":
        return compare(args, spec)
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
