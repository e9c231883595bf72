"""The Fig-10 encoding reaches the pinned optimum everywhere.

``data/layout_pins.json`` holds symbol values and utility recorded at
commit 34580ea with the textbook encoding — integer ``m`` per register
family, big-M precedence — for the 16 (program, target) pairs the
end-to-end benchmark pins in ``benchmarks/e2e/expected.json`` and for a
stages × memory sweep of four applications, infeasible cells included
(``null``). The utility there is the ``optimize`` expression at the
symbol values, which is what ``LayoutSolution.objective`` reports, so
the rows compare exactly. Any exact rewrite of the encoding must
reproduce every one. Regenerate (only from a commit whose encoding is
trusted) with ``PYTHONPATH=src python tests/core/test_layout_pins.py``.

Each feasible case also pins what the compile emits
(:func:`artifact_row`): sha256 digests of the P4 text, ``node_stage``
and ``register_alloc``, and every ``BoundResult``, recorded at commit
e938f00. A change that claims to move no artifact — a speed-up of the
front end, the bounds loop or the solve path — must leave all of them
equal.

Each case has two rows. ``resolved`` is the compile's answer: the
search at HiGHS's default 1e-4 gap, then the zero-gap size re-solve
and canonical placement; it must equal the pin. ``search-only`` is the
search's certificate: the bound it proved on the utility must be no
lower than the pin, so no encoding row cuts the optimum off. That is a
stronger check against too tight an encoding than asking where the
search landed — a point anywhere inside its gap — and a weaker one on
that landing point, which the passes after it make irrelevant. The
solver's objective, bound and gap are all in utility units. One pin is
not the zero-gap optimum: ``netcache.s4m1792`` holds 68 807.4 at
``kv_rows`` 1, where a zero-gap solve finds 68 808.6 at ``kv_rows`` 3
(the compile stops within 1e-4 of it and fixes that ``it``); its bound
row holds regardless.
"""

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.apps import (
    conquest_source,
    netcache_linked,
    netcache_source,
    precision_source,
    sketchlearn_source,
)
from repro.core import LayoutInfeasibleError, compile_linked, compile_source
from repro.core.utility import eval_utility_term
from repro.pisa import tofino
from repro.structures import CMS_SOURCE

PINS_PATH = Path(__file__).parent / "data" / "layout_pins.json"
#: the benchmark's recorded objectives (read-only here): its keys are
#: the 16 pairs, its values the utility minus the old tie-break term
EXPECTED = json.loads((Path(__file__).parents[2] / "benchmarks" / "e2e"
                       / "expected.json").read_text())

SOURCES = {
    "cms": lambda: CMS_SOURCE,
    "sketchlearn": sketchlearn_source,
    "conquest": conquest_source,
    "precision": precision_source,
    "netcache": netcache_source,
}
SWEEP_PROGRAMS = ("cms", "netcache", "precision", "sketchlearn")
SWEEP_STAGES = (4, 6, 8, 10, 12)
SWEEP_MEMORY_KB = (16, 32, 64, tofino().memory_bits_per_stage // 1024)


def _target(stages: int, memory_kb: int):
    return dataclasses.replace(tofino(), stages=stages,
                               memory_bits_per_stage=memory_kb * 1024)


def _benchmark_target(tag: str):
    """``tofino``, ``t6`` or ``t6m<Kb>``, as the benchmark names them."""
    if tag == "tofino":
        return tofino()
    return _target(6, int(tag[3:]) if tag[2:] else 64)


def _cases() -> dict:
    out = {}
    for key in EXPECTED:
        program, tag = key.rsplit(".", 1)
        out[key] = (program, _benchmark_target(tag))
    for program in SWEEP_PROGRAMS:
        for stages in SWEEP_STAGES:
            for kb in SWEEP_MEMORY_KB:
                out[f"{program}.s{stages}m{kb}"] = (program,
                                                    _target(stages, kb))
    return out


#: case id → (program, target)
CASES = _cases()


def compile_case(program: str, target):
    if program == "netcache-linked":
        return compile_linked(netcache_linked(with_routing=False), target)
    return compile_source(SOURCES[program](), target, source_name=program)


def _sha256(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value)
    return hashlib.sha256(text.encode()).hexdigest()


def artifact_row(compiled) -> dict:
    """What a compile emits beside its symbols: digests of the P4 text,
    the stage of every dependency node and the register allocation, and
    every unroll bound with the criterion, the K that fired and the
    longest path at each K (:class:`~repro.analysis.unroll.BoundResult`)."""
    solution = compiled.solution
    return {
        "p4_sha256": _sha256(compiled.p4_source),
        "node_stage_sha256": _sha256(sorted(solution.node_stage.items())),
        "register_alloc_sha256": _sha256(
            sorted(solution.register_alloc.items())),
        "bounds": {
            sym: [res.bound, res.criterion, res.tested_k,
                  list(res.path_lengths)]
            for sym, res in sorted(compiled.bounds.results.items())
        },
    }


def solve_case(program: str, target) -> dict | None:
    """Symbol values, utility and :func:`artifact_row`, or None when
    nothing fits."""
    try:
        compiled = compile_case(program, target)
    except LayoutInfeasibleError:
        return None
    return {
        "symbols": dict(compiled.symbol_values),
        "utility": compiled.solution.objective,
        **artifact_row(compiled),
    }


PINS = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def compiled_case(case: str):
    """One compile of ``case``, or None when nothing fits; memoised per
    (program, target), so every test of a case (here and in
    ``test_layout_canonical.py``) and every case naming the same pair
    (``cms.t6`` is ``cms.s6m64``) reads the same compile."""
    return _compiled(*CASES[case])


@functools.cache
def _compiled(program: str, target):
    try:
        return compile_case(program, target)
    except LayoutInfeasibleError:
        return None


@pytest.fixture(scope="module")
def solved():
    """:func:`compiled_case`, emptied when this module is done with it."""
    yield compiled_case
    _compiled.cache_clear()


#: HiGHS computes its bound in floating point, to its tolerances
BOUND_TOLERANCE = 1e-9


@pytest.mark.parametrize("resolve", [True, False],
                         ids=["resolved", "search-only"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_pinned_optimum(case, resolve, solved):
    # ``resolved``: the compile returns the pinned symbols and utility.
    # ``search-only``: the search's certificate — its proven bound on
    # the utility — is no lower than the pinned optimum, so no row of
    # the encoding cuts the optimum off. Where inside its 1e-4 gap the
    # search stopped is not checked; the zero-gap passes after it
    # decide the sizes and the placement.
    compiled = solved(case)
    want = PINS[case]
    if want is None:
        assert compiled is None
        return
    assert compiled is not None
    solution = compiled.solution
    if resolve:
        assert solution.objective == want["utility"]
        assert dict(solution.symbol_values) == want["symbols"]
    else:
        assert solution.mip_dual_bound >= \
            want["utility"] * (1 - BOUND_TOLERANCE)


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_pins(case, solved):
    # The P4 text, the stage map, the register allocation and every
    # unroll bound are those the pins were recorded with: a change to the
    # compiler that claims to move no artifact is held to every case.
    compiled = solved(case)
    want = PINS[case]
    if want is None:
        assert compiled is None
        return
    got = artifact_row(compiled)
    assert got == {key: want[key] for key in got}


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_objective_is_the_utility_at_the_symbol_values(key, solved):
    # Not the solver's objective: the utility evaluated at the symbol
    # values. expected.json, recorded under an earlier tie-break term,
    # sits a hair lower.
    program, _target = CASES[key]
    compiled = solved(key)
    solution = compiled.solution
    env = {**compiled.info.consts, **compiled.symbol_values}
    if program == "netcache-linked":
        terms = netcache_linked(with_routing=False).utility_terms
        assert solution.objective == sum(solution.utility_breakdown.values())
        assert solution.objective == pytest.approx(
            sum(w * eval_utility_term(term, env) for _module, w, term in terms),
            rel=1e-12)
    else:
        assert solution.utility_breakdown == {}
        assert solution.objective == eval_utility_term(
            compiled.info.program.optimize().utility, env)
    assert EXPECTED[key] <= solution.objective <= EXPECTED[key] * (1 + 2e-7)
    assert solution.mip_dual_bound is not None


#: the path the layout of each ``compile-cold`` program with a known
#: path takes (``LayoutBuilder.search``): the start step's gain, checked
#: without a clock
START_PATHS = {
    "netcache.tofino": "lp-certified",
    "cms.tofino": "lp-certified",
    # its start is 1.02e-4 under B, 5.7e-5 under B on the 0.2 lattice
    "netcache-linked.t6": "lp-certified",
    "netcache-linked.t6m32": "seeded",  # 2.3e-4 under even the lattice's B
    "sketchlearn.t6": "",              # no start: the plain search
}


@pytest.mark.parametrize("case", sorted(START_PATHS))
def test_start_path(case, solved):
    solution = solved(case).solution
    assert solution.incumbent_source == START_PATHS[case]
    if START_PATHS[case] == "lp-certified":
        assert solution.nodes_explored == 0
        assert solution.mip_gap <= 1e-4


def test_most_cases_skip_the_search(solved):
    # 65 of the 86 feasible cases are certified by the LP bound rounded
    # down to the utility's lattice: their compile runs no search at all.
    paths = [solved(case).solution.incumbent_source for case in sorted(CASES)
             if PINS[case] is not None]
    assert len(paths) == 86
    assert paths.count("lp-certified") >= 65


def test_pins_cover_the_benchmark_and_the_sweep():
    assert set(PINS) == set(CASES)
    assert len(PINS) == 16 + 4 * 5 * 4


if __name__ == "__main__":
    pins = {case: solve_case(*spec) for case, spec in sorted(CASES.items())}
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
