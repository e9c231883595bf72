"""Regenerate every paper experiment from the command line.

Usage::

    python -m repro.eval                 # everything, printed
    python -m repro.eval fig09 fig11     # selected experiments
    python -m repro.eval --out results/  # also write one .txt per figure
    python -m repro.eval runtime --profile --out results/
                                         # + cProfile stats per experiment
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path


def _fig01():
    from .fig01_library import run_library_demo

    return run_library_demo().format()


def _fig04():
    from .fig04_quality import run_quality_sweep

    return run_quality_sweep().format()


def _fig07():
    from .fig07_layout import run_layout

    return run_layout().format()


def _fig09():
    from .fig09_unroll import run_unroll_example

    return run_unroll_example().format()


def _fig11():
    from .fig11_apps import run_app_benchmark

    return run_app_benchmark().format()


def _fig12():
    from .fig12_elastic import run_memory_sweep

    return run_memory_sweep().format()


def _fig13():
    from .fig13_utility import run_utility_comparison

    return run_utility_comparison().format()


def _runtime():
    from .runtime_elastic import run_elastic_runtime

    return run_elastic_runtime().format()


def _fleet():
    from .fleet import run_fleet

    return run_fleet().format()


def _ablations():
    from ..apps import netcache_source
    from ..pisa.resources import small_target, tofino
    from ..structures import CMS_SOURCE
    from .ablations import (
        compare_exclusion_handling,
        compare_greedy_vs_ilp,
        compare_solvers,
        measure_bound_tightness,
    )

    target = small_target(stages=6, memory_kb=32)
    parts = [
        compare_greedy_vs_ilp(CMS_SOURCE, target, name="cms").format(),
        compare_greedy_vs_ilp(netcache_source(), tofino(), name="netcache").format(),
        compare_exclusion_handling(CMS_SOURCE, target, name="cms").format(),
        measure_bound_tightness(netcache_source(), tofino(), name="netcache").format(),
        compare_solvers(CMS_SOURCE, small_target(stages=4, memory_kb=8),
                        name="cms").format(),
    ]
    return "\n\n".join(parts)


EXPERIMENTS = {
    "fig01": ("Figure 1 — library elasticity", _fig01),
    "fig04": ("Figure 4 — NetCache quality sweep", _fig04),
    "fig07": ("Figure 7 — NetCache layout", _fig07),
    "fig09": ("Figure 9 — unroll bounds", _fig09),
    "fig11": ("Figure 11 — application table", _fig11),
    "fig12": ("Figure 12 — memory elasticity", _fig12),
    "fig13": ("Figure 13 — utility choice", _fig13),
    "runtime": ("Elastic runtime — online memory-cut recovery", _runtime),
    "fleet": ("Fabric fleet — multi-switch scaling and live migration",
              _fleet),
    "ablations": ("Design-choice ablations", _ablations),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="*", default=list(EXPERIMENTS),
        help=f"subset to run (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for per-experiment .txt outputs")
    parser.add_argument("--profile", action="store_true",
                        help="wrap each experiment in cProfile and write "
                             "sorted cumulative stats next to its output "
                             "(<name>_profile.txt in --out, or the cwd)")
    args = parser.parse_args(argv)

    unknown = [e for e in args.experiments if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    from ..profiling import profiled

    for name in args.experiments:
        title, runner = EXPERIMENTS[name]
        profile_path = None
        if args.profile:
            report_dir = args.out or Path(".")
            profile_path = report_dir / f"{name}_profile.txt"
        started = time.perf_counter()
        with profiled(profile_path):
            text = runner()
        elapsed = time.perf_counter() - started
        banner = f"=== {title} ({elapsed:.1f}s) ==="
        print(banner)
        print(text)
        if profile_path is not None:
            print(f"profile: {profile_path}", file=sys.stderr)
        print()
        if args.out:
            (args.out / f"{name}.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
