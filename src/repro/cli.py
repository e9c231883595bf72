"""Command-line interface: the ``p4all`` compiler driver.

Subcommands::

    p4all compile prog.p4all --target tofino [-o out.p4] [--report]
    p4all compile a.p4all b.p4all --weights a=2,b=1   # link modules
                                                      # into one layout
    p4all verify  a.p4all b.p4all [--netcache]   # cross-tenant flow
                                                 # matrix + witnesses
    p4all bounds  prog.p4all --target tofino     # unroll bounds only
    p4all graph   prog.p4all                     # dependency graph (DOT)
    p4all run     [--packets N] [--cut-at N] [--engine E] [--profile]
    p4all fabric  [--switches N] [--migrate-at N] [--cut-at N]
                                                 # multi-switch fleet
    p4all targets                                # list target specs
    p4all library [name]                         # dump library module source
    p4all obs trace.json [--metrics out.prom] [--flight dump.jsonl]
                                                 # summarize observability
                                                 # artifacts (--format json
                                                 # for machine-readable)
    p4all top {run,fabric} [flags] [--no-clear]  # the same run, with a live
                                                 # metrics view per window

``compile`` and ``run`` accept ``--trace PATH`` (Chrome trace-event
JSON of the command's span timeline — load it in Perfetto or
``chrome://tracing``), ``--metrics PATH`` (Prometheus textfile of
the accumulated counters/gauges/histograms), and ``--flight PATH``
(flight-recorder JSONL: the last few thousand events, dumped at exit
or on crash). ``p4all obs`` renders any of the artifacts as a terminal
summary. See docs/OBSERVABILITY.md.

Every program-compiling subcommand lays the program out with one
solver, HiGHS, and accepts ``--time-limit`` (seconds; expiry degrades
structuredly instead of failing opaquely).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import build_ir, compute_upper_bounds
from .core import CompileOptions, compile_file, layout_report, stats_report, summary_line
from .core.errors import CompileError
from .lang import P4AllError, check_program, parse_program
from .pisa.resources import TARGETS, get_target


def _add_target_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--target", default="tofino",
        help=f"target specification name ({', '.join(sorted(TARGETS))})",
    )
    parser.add_argument(
        "--target-file", default=None,
        help="JSON target specification (overrides --target)",
    )
    parser.add_argument(
        "--stages", type=int, default=None,
        help="override the target's stage count",
    )
    parser.add_argument(
        "--memory", type=int, default=None,
        help="override per-stage register memory (bits)",
    )


def _add_solver_args(parser: argparse.ArgumentParser) -> None:
    """Uniform layout-solver flags, shared by every subcommand that can
    compile a program."""
    parser.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="ILP solver time limit in seconds; on expiry the best "
             "incumbent is used, or a structured timeout is raised "
             "(default: no limit)",
    )


def _compile_options(args) -> "CompileOptions":
    return CompileOptions(
        entry=getattr(args, "entry", "Ingress"),
        time_limit=args.time_limit,
    )


def _resolve_target(args):
    import dataclasses

    if getattr(args, "target_file", None):
        from .pisa.targetspec import load_target

        target = load_target(args.target_file)
    else:
        target = get_target(args.target)
    overrides = {}
    if args.stages is not None:
        overrides["stages"] = args.stages
    if args.memory is not None:
        overrides["memory_bits_per_stage"] = args.memory
    if overrides:
        target = dataclasses.replace(target, **overrides)
    return target


def _parse_name_values(spec: str, flag: str) -> dict[str, float]:
    """Parse a ``name=value,name=value`` flag into a dict."""
    from .link import LinkError

    values: dict[str, float] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, raw = item.partition("=")
        name = name.strip()
        try:
            if not sep or not name:
                raise ValueError
            values[name] = float(raw.strip())
        except ValueError:
            raise LinkError(
                f"malformed {flag} entry {item!r}: expected name=value"
            ) from None
    return values


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by the compile and run subcommands."""
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record this command as Chrome trace-event JSON at PATH "
             "(open in Perfetto or chrome://tracing; summarize with "
             "'p4all obs PATH')",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the accumulated metrics as a Prometheus textfile "
             "to PATH",
    )
    parser.add_argument(
        "--flight", default=None, metavar="PATH",
        help="dump the flight-recorder ring (recent spans, batch notes, "
             "telemetry, SLO violations) as JSONL to PATH at exit — or "
             "at the crash point if the command dies (summarize with "
             "'p4all obs --flight PATH')",
    )


def _positive_int(text: str) -> int:
    """A count that must be at least 1 (``--window``, ``--universe``,
    ``--switches``)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _sub_batch(text: str) -> int:
    """``--serve-batch`` value: a sub-batch size, 0 for per-packet."""
    size = int(text)
    if size < 0:
        raise argparse.ArgumentTypeError("must be 0 or a positive size")
    return size


def _add_serve_args(parser: argparse.ArgumentParser,
                    serve_batch: bool = True) -> None:
    """``--engine`` and (for the commands that serve traces themselves)
    ``--serve-batch``."""
    parser.add_argument(
        "--engine", default=None, choices=["compiled", "vector", "interp"],
        help="pipeline execution engine: the generated-code scalar "
             "engine, the columnar whole-batch vector engine, or the "
             "reference tree-walking interpreter (default: vector)",
    )
    if serve_batch:
        parser.add_argument(
            "--serve-batch", type=_sub_batch, default=None, metavar="N",
            help="serve each window (per switch, under 'fabric') in "
                 "sub-batches of N packets; results do not depend on N "
                 "(0 = the per-packet reference serve; default: the "
                 "engine's chunk size)",
        )


def _with_obs(args) -> int:
    """Run the command's ``args.body`` under the observability exporter.

    The artifacts are written even when the body raises, so a failed
    compile still leaves its partial timeline behind for diagnosis.
    """
    from .obs import observed

    with observed(getattr(args, "trace", None), getattr(args, "metrics", None),
                  flight_path=getattr(args, "flight", None)):
        result = args.body(args)
    if getattr(args, "trace", None):
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    if getattr(args, "metrics", None):
        print(f"wrote metrics to {args.metrics}", file=sys.stderr)
    if getattr(args, "flight", None):
        print(f"wrote flight recording to {args.flight}", file=sys.stderr)
    return result


def _compile_body(args) -> int:
    from .profiling import profiled

    target = _resolve_target(args)
    weights = _parse_name_values(args.weights, "--weights") if args.weights else None
    floors = _parse_name_values(args.floors, "--floors") if args.floors else None
    multi = len(args.programs) > 1 or weights is not None or floors is not None
    with profiled(args.profile):
        if multi:
            from .core import compile_linked
            from .link import link_files

            linked = link_files(
                args.programs, weights=weights, floors=floors,
                entry=args.entry,
            )
            compiled = compile_linked(
                linked, target, options=_compile_options(args)
            )
        else:
            compiled = compile_file(
                args.programs[0], target, options=_compile_options(args)
            )
    if args.profile:
        print(f"wrote profile to {args.profile}", file=sys.stderr)
    if args.output:
        Path(args.output).write_text(compiled.p4_source)
        print(f"wrote {args.output}")
    else:
        print(compiled.p4_source)
    print(summary_line(compiled), file=sys.stderr)
    if compiled.namespace is not None:
        from .core import module_report

        print(module_report(compiled), file=sys.stderr)
    if args.stats:
        print(stats_report(compiled), file=sys.stderr)
    if args.report:
        print(layout_report(compiled), file=sys.stderr)
    return 0


def _verify_body(args) -> int:
    from .core import compile_linked
    from .link import link_files

    target = _resolve_target(args)
    weights = _parse_name_values(args.weights, "--weights") if args.weights else None
    floors = _parse_name_values(args.floors, "--floors") if args.floors else None
    if args.netcache:
        from .apps import netcache_linked

        linked = netcache_linked()
    elif args.programs:
        # Link permissively: the point of `verify` is to *report* every
        # cross-module flow, so linking must not abort on the first one.
        linked = link_files(
            args.programs, weights=weights, floors=floors,
            entry=args.entry, allow_cross_module_state=True,
        )
    else:
        print("error: give .p4all programs or --netcache", file=sys.stderr)
        return 2
    compiled = compile_linked(linked, target, options=_compile_options(args))
    result = compiled.verify
    modules = result.modules if result is not None else []
    print(f"verified {len(modules)} modules "
          f"({', '.join(modules) or 'none'}) on {target.name}")
    if result is None or result.clean:
        for mod in modules:
            print(f"  {mod}: isolated (no foreign state reaches it)")
        print("isolation verified: no cross-module state flows")
        return 0
    matrix = result.flow_matrix()
    print(f"cross-module flows ({len(result.flows)}):")
    for (source, sink), count in sorted(matrix.items()):
        print(f"  {source} -> {sink}: {count} flow(s)")
    for flow in result.flows:
        print(f"    {flow.sink_kind} '{flow.sink}' of '{flow.sink_module}' "
              f"tainted by '{flow.source}' "
              f"(witness: {flow.witness_text()})")
    for mod in modules:
        influencers = sorted(result.influencers(mod))
        if influencers:
            print(f"  {mod}: influenced by {', '.join(influencers)}")
    if args.allow_cross_module_state:
        print("flows allowed by --allow-cross-module-state", file=sys.stderr)
        return 0
    return 1


def _cmd_bounds(args) -> int:
    target = _resolve_target(args)
    source = Path(args.program).read_text()
    info = check_program(parse_program(source, args.program))
    ir = build_ir(info, args.entry)
    bounds = compute_upper_bounds(ir, target)
    for sym, result in bounds.results.items():
        print(
            f"{sym}: bound {result.bound} "
            f"(criterion: {result.criterion}, path lengths {result.path_lengths})"
        )
    return 0


def _cmd_graph(args) -> int:
    from .analysis import build_dependency_graph, graph_to_dot, instantiate

    target = _resolve_target(args)
    source = Path(args.program).read_text()
    info = check_program(parse_program(source, args.program))
    ir = build_ir(info, args.entry)
    counts = compute_upper_bounds(ir, target).as_counts()
    if args.unroll is not None:
        counts = {sym: args.unroll for sym in counts}
    graph = build_dependency_graph(instantiate(ir, counts))
    print(graph_to_dot(graph, title=Path(args.program).stem))
    return 0


def _run_body(args, on_event=None) -> int:
    import dataclasses
    import json

    from .runtime import ElasticRuntime, ReconfigPlanner, RuntimeConfig, TelemetryBus
    from .workloads.churn import ChurningZipf

    target = _resolve_target(args)
    telemetry = TelemetryBus(sink=args.events)
    if on_event is not None:
        telemetry.subscribe(on_event)
    planner = ReconfigPlanner(options=_compile_options(args),
                              telemetry=telemetry)
    config = RuntimeConfig(
        window_packets=args.window,
        hot_threshold=args.hot_threshold,
        migrate_state=not args.no_migrate,
        engine=args.engine,
        serve_batch=args.serve_batch,
    )
    print(f"compiling NetCache for {target.describe()}", file=sys.stderr)
    runtime = ElasticRuntime(
        target, config=config, telemetry=telemetry, planner=planner
    )
    stream = ChurningZipf(
        args.universe,
        alpha=args.alpha,
        phase_packets=args.phase_packets,
        churn=args.churn,
        hot_ranks=args.hot_ranks,
        seed=args.seed,
    )
    if not args.no_cut:
        cut_at = args.cut_at if args.cut_at is not None else args.packets // 2
        cut_bits = (args.cut_memory if args.cut_memory is not None
                    else target.memory_bits_per_stage // 2)
        runtime.schedule_target_change(
            cut_at, dataclasses.replace(target, memory_bits_per_stage=cut_bits)
        )
        print(f"scheduled memory cut to {cut_bits} bits/stage at packet "
              f"{cut_at}", file=sys.stderr)

    from .profiling import profiled

    with profiled(args.profile):
        report = runtime.run(stream, packets=args.packets)
    if args.profile:
        print(f"wrote profile to {args.profile}", file=sys.stderr)
    print(report.format())
    telemetry.close()
    fallbacks = telemetry.events_of("ilp_fallback")
    if fallbacks:
        print(f"  ILP->greedy fallbacks: {len(fallbacks)}")
    if args.json:
        Path(args.json).write_text(json.dumps(report.to_dict(), indent=2))
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _fabric_body(args, on_event=None) -> int:
    import dataclasses
    import json

    from .fabric import FabricTopology, FleetConfig, FleetController
    from .runtime import TelemetryBus
    from .workloads import ZipfGenerator

    target = _resolve_target(args)
    if args.topology == "leaf-spine":
        fabric = FabricTopology.leaf_spine(
            leaves=args.switches, spines=args.spines, target=target,
            standby=args.standby,
        )
    else:
        fabric = FabricTopology.flat(args.switches, target,
                                     standby=args.standby)
    print(fabric.describe(), file=sys.stderr)
    telemetry = TelemetryBus(sink=args.events)
    if on_event is not None:
        telemetry.subscribe(on_event)
    config = FleetConfig(
        window_packets=args.window,
        vnodes=args.vnodes,
        hot_threshold=args.hot_threshold,
        skew_threshold=args.skew_threshold,
        max_move_fraction=args.max_move,
        engine=args.engine,
        serve_batch=args.serve_batch,
    )
    controller = FleetController(
        fabric, options=_compile_options(args), config=config,
        telemetry=telemetry,
    )
    if args.cut_at is not None:
        cut_switch = args.cut_switch or fabric.serving()[0]
        cut_bits = (args.cut_memory if args.cut_memory is not None
                    else target.memory_bits_per_stage // 2)
        controller.schedule_cut(
            args.cut_at,
            cut_switch,
            dataclasses.replace(target, memory_bits_per_stage=cut_bits),
        )
        print(f"scheduled memory cut on {cut_switch} to {cut_bits} "
              f"bits/stage at packet {args.cut_at}", file=sys.stderr)
    if args.migrate_at is not None:
        migrate_to = args.migrate_to or next(iter(fabric.standby()), None)
        if migrate_to is None:
            print("error: --migrate-at needs --migrate-to or a standby "
                  "switch (--standby N)", file=sys.stderr)
            return 2
        controller.schedule_migration(args.migrate_at, args.migrate_src,
                                      migrate_to)
        print(f"scheduled migration {args.migrate_src} -> "
              f"{migrate_to} at packet {args.migrate_at}",
              file=sys.stderr)
    print(f"compiling NetCache fleet for {target.describe()}",
          file=sys.stderr)
    stream = ZipfGenerator(args.universe, alpha=args.alpha, seed=args.seed)
    with controller:
        report = controller.run(stream, packets=args.packets)
    print(report.format())
    telemetry.close()
    if args.json:
        Path(args.json).write_text(json.dumps(report.to_dict(), indent=2))
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _cmd_obs(args) -> int:
    import json

    from .obs.view import render, snapshot

    if (args.trace_file is None and args.metrics_file is None
            and args.flight_file is None):
        print("error: nothing to summarize — give a trace file, "
              "--metrics FILE, and/or --flight FILE", file=sys.stderr)
        return 2

    def read(path):
        return None if path is None else Path(path).read_text()

    trace = read(args.trace_file)
    try:
        snap = snapshot(
            trace=None if trace is None else json.loads(trace),
            metrics=read(args.metrics_file), flight=read(args.flight_file),
            depth=args.depth, top=args.top,
        )
    except ValueError as exc:  # a malformed artifact, JSON or Prometheus
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(snap, indent=2, sort_keys=True, default=str))
    else:
        print(render(snap))
    return 0


def _cmd_top(args) -> int:
    """Run the ``run`` or ``fabric`` scenario itself, painting a frame
    of the metrics view at every window and once at the end; the
    scenario's own report follows the final frame."""
    import contextlib
    import functools
    import io

    from .obs import metrics
    from .obs.view import live

    out = sys.stdout
    ansi = not args.no_clear and out.isatty()
    frames = live(metrics)

    def paint() -> None:
        out.write(("\x1b[H\x1b[2J" if ansi else "") + next(frames)
                  + ("\n" if ansi else "\n\n"))
        out.flush()

    def on_event(event) -> None:
        if event.kind == "window":
            paint()

    args.body = functools.partial(args.body, on_event=on_event)
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        rc = _with_obs(args)
    paint()
    out.write(report.getvalue())
    return rc


def _cmd_targets(_args) -> int:
    for name in sorted(TARGETS):
        print(get_target(name).describe())
    return 0


def _cmd_library(args) -> int:
    from .structures import LIBRARY_SOURCES

    if not args.name:
        for name in sorted(LIBRARY_SOURCES):
            print(name)
        return 0
    try:
        print(LIBRARY_SOURCES[args.name])
    except KeyError:
        print(f"unknown module {args.name!r}; options: "
              f"{', '.join(sorted(LIBRARY_SOURCES))}", file=sys.stderr)
        return 2
    return 0


def _add_run_args(p_run: argparse.ArgumentParser) -> None:
    """The ``run`` scenario's flags (also ``top run``'s)."""
    p_run.add_argument("--packets", type=int, default=16_000,
                       help="total packets to process (default: 16000)")
    p_run.add_argument("--window", type=_positive_int, default=500,
                       help="monitoring window in packets (default: 500)")
    p_run.add_argument("--universe", type=_positive_int, default=2000,
                       help="key universe size (default: 2000)")
    p_run.add_argument("--alpha", type=float, default=1.25,
                       help="Zipf skew (default: 1.25)")
    p_run.add_argument("--churn", type=float, default=0.2,
                       help="hot-set fraction rotated per phase (default: 0.2)")
    p_run.add_argument("--phase-packets", type=int, default=4000,
                       help="packets per churn phase (default: 4000)")
    p_run.add_argument("--hot-ranks", type=int, default=200,
                       help="hot-set size subject to churn (default: 200)")
    p_run.add_argument("--seed", type=int, default=42,
                       help="workload seed (default: 42)")
    p_run.add_argument("--hot-threshold", type=int, default=4,
                       help="sketch estimate that promotes a key (default: 4)")
    p_run.add_argument("--cut-at", type=int, default=None,
                       help="packet index of the memory cut "
                            "(default: packets/2)")
    p_run.add_argument("--cut-memory", type=int, default=None, metavar="BITS",
                       help="per-stage memory after the cut "
                            "(default: half the target's)")
    p_run.add_argument("--no-cut", action="store_true",
                       help="run without the scheduled memory cut")
    p_run.add_argument("--no-migrate", action="store_true",
                       help="swap without migrating register state "
                            "(cold-start comparison)")
    p_run.add_argument("--events", default=None, metavar="PATH",
                       help="stream telemetry events to a JSONL file")
    p_run.add_argument("--json", default=None, metavar="PATH",
                       help="write the run report as JSON")
    _add_serve_args(p_run)
    p_run.add_argument("--profile", nargs="?", const="p4all_run_profile.txt",
                       default=None, metavar="PATH",
                       help="profile the run with cProfile and write sorted "
                            "cumulative stats to PATH "
                            "(default: p4all_run_profile.txt)")
    _add_target_arg(p_run)
    _add_solver_args(p_run)
    _add_obs_args(p_run)


def _add_fabric_args(p_fabric: argparse.ArgumentParser) -> None:
    """The ``fabric`` scenario's flags (also ``top fabric``'s)."""
    p_fabric.add_argument("--switches", type=_positive_int, default=4,
                          help="serving switches (default: 4)")
    p_fabric.add_argument("--standby", type=int, default=0,
                          help="warm standby switches (default: 0)")
    p_fabric.add_argument("--topology", default="flat",
                          choices=["flat", "leaf-spine"],
                          help="fabric shape (default: flat, behind one "
                               "load balancer)")
    p_fabric.add_argument("--spines", type=int, default=2,
                          help="spine switches for --topology leaf-spine "
                               "(default: 2)")
    p_fabric.add_argument("--packets", type=int, default=16_000,
                          help="total packets to shard (default: 16000)")
    p_fabric.add_argument("--window", type=_positive_int, default=2000,
                          help="sharding window in packets (default: 2000)")
    p_fabric.add_argument("--universe", type=_positive_int, default=10_000,
                          help="key universe size (default: 10000)")
    p_fabric.add_argument("--alpha", type=float, default=0.9,
                          help="Zipf skew (default: 0.9)")
    p_fabric.add_argument("--seed", type=int, default=42,
                          help="workload seed (default: 42)")
    p_fabric.add_argument("--vnodes", type=int, default=64,
                          help="virtual nodes per switch on the hash ring "
                               "(default: 64)")
    p_fabric.add_argument("--hot-threshold", type=int, default=4,
                          help="sketch estimate that promotes a key "
                               "(default: 4)")
    p_fabric.add_argument("--skew-threshold", type=float, default=0.0,
                          help="max/mean window-share ratio that triggers "
                               "an arc rebalance (0 disables; default: 0)")
    p_fabric.add_argument("--max-move", type=float, default=0.2,
                          help="moved-keyspace bound per rebalance "
                               "(default: 0.2)")
    p_fabric.add_argument("--cut-at", type=int, default=None,
                          help="packet index of a per-switch memory cut")
    p_fabric.add_argument("--cut-switch", default=None,
                          help="switch to cut (default: first serving)")
    p_fabric.add_argument("--cut-memory", type=int, default=None,
                          metavar="BITS",
                          help="per-stage memory after the cut "
                               "(default: half the target's)")
    p_fabric.add_argument("--migrate-at", type=int, default=None,
                          help="packet index of a live app migration")
    p_fabric.add_argument("--migrate-src", default="hottest",
                          help="switch to drain, or 'hottest' "
                               "(default: hottest)")
    p_fabric.add_argument("--migrate-to", default=None,
                          help="destination switch (default: first standby)")
    p_fabric.add_argument("--events", default=None, metavar="PATH",
                          help="stream telemetry events to a JSONL file")
    p_fabric.add_argument("--json", default=None, metavar="PATH",
                          help="write the fleet report as JSON")
    _add_serve_args(p_fabric)
    _add_target_arg(p_fabric)
    _add_solver_args(p_fabric)
    _add_obs_args(p_fabric)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p4all",
        description="P4All elastic switch-program compiler (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser(
        "compile",
        help="compile one .p4all program — or link several into a joint "
             "layout — and emit P4",
    )
    p_compile.add_argument(
        "programs", nargs="+", metavar="program",
        help="path(s) to .p4all sources; two or more are linked into one "
             "program with per-module utility weighting and attribution",
    )
    p_compile.add_argument(
        "--weights", default=None, metavar="NAME=W,...",
        help="per-module utility weights for linked compiles, e.g. "
             "cms=2,kv=1 (module names are the file stems)",
    )
    p_compile.add_argument(
        "--floors", default=None, metavar="NAME=F,...",
        help="per-module minimum weighted utility for linked compiles "
             "(added as ILP constraints)",
    )
    p_compile.add_argument("-o", "--output", help="output .p4 path (default: stdout)")
    p_compile.add_argument("--entry", default="Ingress", help="ingress control name")
    p_compile.add_argument("--report", action="store_true",
                           help="print the per-stage layout report")
    p_compile.add_argument("--stats", action="store_true",
                           help="print per-phase wall times (parse / IR / "
                                "bounds / ILP build / solve / codegen)")
    p_compile.add_argument("--profile", nargs="?",
                           const="p4all_compile_profile.txt",
                           default=None, metavar="PATH",
                           help="profile the compile with cProfile and write "
                                "sorted cumulative stats to PATH "
                                "(default: p4all_compile_profile.txt)")
    _add_target_arg(p_compile)
    _add_solver_args(p_compile)
    _add_obs_args(p_compile)
    p_compile.set_defaults(func=_with_obs, body=_compile_body)

    p_verify = sub.add_parser(
        "verify",
        help="link modules and print the cross-tenant state-flow matrix "
             "with witness paths; exits 1 on any cross-module flow",
    )
    p_verify.add_argument(
        "programs", nargs="*", metavar="program",
        help="path(s) to .p4all sources to link and verify",
    )
    p_verify.add_argument(
        "--netcache", action="store_true",
        help="verify the built-in NetCache module pair instead of files",
    )
    p_verify.add_argument(
        "--weights", default=None, metavar="NAME=W,...",
        help="per-module utility weights, e.g. cms=2,kv=1",
    )
    p_verify.add_argument(
        "--floors", default=None, metavar="NAME=F,...",
        help="per-module minimum weighted utility (ILP constraints)",
    )
    p_verify.add_argument(
        "--allow-cross-module-state", action="store_true",
        help="report flows but exit 0 (the linked program sanctions "
             "cross-module state sharing)",
    )
    p_verify.add_argument("--entry", default="Ingress",
                          help="ingress control name")
    _add_target_arg(p_verify)
    _add_solver_args(p_verify)
    _add_obs_args(p_verify)
    p_verify.set_defaults(func=_with_obs, body=_verify_body)

    p_bounds = sub.add_parser("bounds", help="show loop-unrolling upper bounds")
    p_bounds.add_argument("program")
    p_bounds.add_argument("--entry", default="Ingress")
    _add_target_arg(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_graph = sub.add_parser(
        "graph", help="emit the dependency graph (DOT) at the unroll bound"
    )
    p_graph.add_argument("program")
    p_graph.add_argument("--entry", default="Ingress")
    p_graph.add_argument("--unroll", type=int, default=None,
                         help="override the iteration count for all loops")
    _add_target_arg(p_graph)
    p_graph.set_defaults(func=_cmd_graph)

    p_run = sub.add_parser(
        "run",
        help="drive the elastic runtime: NetCache under a churning Zipf "
             "stream with a mid-run memory cut, online recompile + state "
             "migration + hot swap",
    )
    _add_run_args(p_run)
    p_run.set_defaults(func=_with_obs, body=_run_body)

    p_fabric = sub.add_parser(
        "fabric",
        help="drive a multi-switch fabric: NetCache sharded over a "
             "consistent-hash ring of PISA switches, with optional "
             "mid-run per-switch memory cuts and live app migration",
    )
    _add_fabric_args(p_fabric)
    p_fabric.set_defaults(func=_with_obs, body=_fabric_body)

    p_obs = sub.add_parser(
        "obs",
        help="summarize observability artifacts: a --trace Chrome trace "
             "JSON (span tree + per-span aggregates), a --metrics "
             "Prometheus textfile, and/or a --flight recorder dump",
    )
    p_obs.add_argument("trace_file", nargs="?", default=None,
                       help="Chrome trace-event JSON produced by --trace")
    p_obs.add_argument("--metrics", dest="metrics_file", default=None,
                       metavar="FILE",
                       help="Prometheus textfile produced by --metrics")
    p_obs.add_argument("--flight", dest="flight_file", default=None,
                       metavar="FILE",
                       help="flight-recorder JSONL produced by --flight "
                            "or a crash/SIGUSR1 dump")
    p_obs.add_argument("--format", default="text",
                       choices=["text", "json"],
                       help="output rendering: terminal tables, or one "
                            "JSON object with the same content "
                            "(default: text)")
    p_obs.add_argument("--depth", type=int, default=6,
                       help="max depth of the rendered span tree (default: 6)")
    p_obs.add_argument("--top", type=int, default=20,
                       help="rows in the per-span aggregate table "
                            "(default: 20)")
    p_obs.set_defaults(func=_cmd_obs)

    p_top = sub.add_parser(
        "top",
        help="run the 'run' or 'fabric' scenario with a live view of its "
             "metrics — fleet, pipeline, tenant SLOs, control plane — "
             "repainted at every window",
    )
    scenarios = p_top.add_subparsers(dest="scenario", required=True)
    for name, add_args, body in (("run", _add_run_args, _run_body),
                                 ("fabric", _add_fabric_args, _fabric_body)):
        p_scenario = scenarios.add_parser(
            name, help=f"the 'p4all {name}' scenario, with the same flags")
        add_args(p_scenario)
        p_scenario.add_argument(
            "--no-clear", action="store_true",
            help="append frames instead of clearing the screen "
                 "(for logs and pipes)")
        p_scenario.set_defaults(func=_cmd_top, body=body)

    p_targets = sub.add_parser("targets", help="list known target specifications")
    p_targets.set_defaults(func=_cmd_targets)

    p_library = sub.add_parser("library", help="print a library module's source")
    p_library.add_argument("name", nargs="?", default=None)
    p_library.set_defaults(func=_cmd_library)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (P4AllError, CompileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. `p4all obs trace.json | head`
        return 0


if __name__ == "__main__":
    sys.exit(main())
