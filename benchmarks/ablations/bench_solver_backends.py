"""Ablation — ILP solvers on the same layout models.

HiGHS (the compiler's solver) vs the built-in branch-and-bound, called
by name: both are exact, so the optimal objective must agree; runtimes are reported for the record (the
paper used Gurobi — any exact solver reproduces its results).
"""

from repro.eval import compare_solvers
from repro.pisa.resources import small_target
from repro.structures import BLOOM_SOURCE, CMS_SOURCE, IDTABLE_SOURCE


def test_backends_agree_across_library(benchmark):
    target = small_target(stages=4, memory_kb=8)

    def run_all():
        return [
            compare_solvers(source, target, name=name, time_limit=120.0)
            for name, source in (
                ("cms", CMS_SOURCE),
                ("bloom", BLOOM_SOURCE),
                ("idtable", IDTABLE_SOURCE),
            )
        ]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    for result in results:
        print(result.format())
        assert result.agree, result.format()
