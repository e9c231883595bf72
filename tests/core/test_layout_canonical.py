"""One stage placement per (program, target), wherever the search stops.

HiGHS stops its search anywhere inside a 1e-4 relative gap, and many
placements share the optimal utility, so where the search lands depends
on its path. ``LayoutBuilder.canonical_placement`` re-places the
solution at zero gap with the sizes fixed, which must make the
placement a function of the (program, target) pair alone.

The check moves the search and nothing else: it wraps
``repro.core.layout.solve`` and, for the calls with nothing fixed — the
LP relaxation the start step rounds and certifies from, and the search
— adds ``δ·s`` to the coefficient of every ``x[n, s]``, δ ∈ {±1e-5,
±3e-4}: pulls toward early and toward late stages, the smaller one
inside HiGHS's gap, the larger one outside it. Pulling the relaxation
too moves the start of a case the LP bound certifies, which never
reaches the search. Every case must give one ``node_stage`` and one set
of symbol values under every pull and without one.

Tier-1 samples the cases below, each under one of the four pulls. The
full run allows one exception, named in :data:`GAP_STOPS`. Run the check with all four pulls over every case of
``test_layout_pins.py`` (infeasible ones included) with::

    PYTHONPATH=src python -m tests.core.test_layout_canonical
"""

import contextlib
import copy
import dataclasses
import sys
import time

import pytest

from repro.core import LayoutInfeasibleError
from repro.core import layout as layout_module
from repro.core.layout import LayoutBuilder

from .test_layout_pins import CASES, compile_case, compiled_case

#: per-stage pulls added to the search's objective (it maximises)
PULLS = (0.0, -1e-5, 1e-5, -3e-4, 3e-4)

#: the apps on the benchmark's 6-stage target, CMS on the full Tofino,
#: and unrouted linked NetCache down the memory ladder
SAMPLED = ("cms.t6", "conquest.t6", "netcache.t6", "netcache-linked.t6",
           "precision.t6", "sketchlearn.t6", "cms.tofino",
           "netcache-linked.t6m60", "netcache-linked.t6m44",
           "netcache-linked.t6m32")

#: cases where the search, stopping anywhere inside its 1e-4 gap, stops
#: at a different ``it`` depending on its path, so the symbol values
#: move with the path: a fault of the gap, which the placement pass
#: (``it`` fixed) cannot mend. ``netcache.s4m1792`` gives ``kv_rows`` 1
#: or 2 under the pulls, where a zero-gap search finds 3.
GAP_STOPS = frozenset({"netcache.s4m1792"})


@contextlib.contextmanager
def pulled(delta: float):
    """Compiles inside this block run their LP relaxation and their
    search with ``delta·s`` added to every ``x[n, s]`` objective
    coefficient. Each solution is returned with its objective
    re-evaluated under the real objective, so the steps after it see
    only where it stopped."""
    built = []
    build, layout_solve = LayoutBuilder.build, layout_module.solve

    def recording_build(self):
        built.append(self.layout)
        return build(self)

    def search(model, **kwargs):
        if kwargs.get("fixed") is not None:
            return layout_solve(model, **kwargs)
        # The relaxation is a copy of the model, with its variables.
        lm = next(lm for lm in built if lm.model.model_id == model.model_id)
        expr = model.objective.expr.copy()
        for (_nid, s), var in lm.x.items():
            expr.terms[var] = expr.terms.get(var, 0.0) + delta * s
        moved = copy.copy(model)
        moved.objective = dataclasses.replace(model.objective, expr=expr)
        got = layout_solve(moved, **kwargs)
        if not got.has_incumbent:
            return got
        return dataclasses.replace(
            got, objective=model.objective.expr.value(got.values))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LayoutBuilder, "build", recording_build)
        patch.setattr(layout_module, "solve", search)
        yield


def outcome(case: str, delta: float):
    """``(node_stage, symbol values)`` of a compile of ``case`` whose
    search is pulled by ``delta``; None when nothing fits."""
    if delta:
        with pulled(delta):
            try:
                compiled = compile_case(*CASES[case])
            except LayoutInfeasibleError:
                return None
    else:
        compiled = compiled_case(case)
        if compiled is None:
            return None
    return (tuple(sorted(compiled.solution.node_stage.items())),
            tuple(sorted(compiled.symbol_values.items())))


@pytest.mark.parametrize("case", SAMPLED)
def test_one_placement_whatever_the_search_path(case):
    # One pull per case, cycling through the four down the list.
    delta = PULLS[1 + SAMPLED.index(case) % (len(PULLS) - 1)]
    assert outcome(case, delta) == outcome(case, 0.0)


def main() -> int:
    failures = []
    for case in sorted(CASES):
        started = time.perf_counter()
        seen = {outcome(case, delta) for delta in PULLS}
        print(f"{case}: {len(seen)} outcome(s) over {len(PULLS)} search "
              f"paths ({time.perf_counter() - started:.2f}s)", flush=True)
        if len(seen) == 1:
            continue
        # A gap stop moves the symbol values; each must still have one
        # placement.
        if case in GAP_STOPS and None not in seen and \
                len({symbols for _stages, symbols in seen}) == len(seen):
            print(f"  {case}: the search stopped at "
                  f"{len(seen)} symbol sets, one placement each")
            continue
        failures.append(case)
    if failures:
        print(f"more than one placement: {', '.join(failures)}")
        return 1
    print(f"{len(CASES)} cases, one placement per set of symbol values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
