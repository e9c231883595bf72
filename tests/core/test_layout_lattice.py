"""The utility's lattice: a certificate the start step checks without a
search.

At every feasible integral layout the objective lies on u + g·ℤ
(:meth:`LayoutBuilder.utility_lattice`), so the LP bound B rounds down
to the last lattice point at or under it before the start is held to
HiGHS's 1e-4 rule. These tests pin g for the six ``compile-cold``
programs, show a ``min()`` utility gets no lattice (B is used as is),
and check the rounded bound against the exact optimum the branch and
bound finds at zero gap.
"""

import dataclasses
from fractions import Fraction

import pytest

from repro.analysis import build_ir, compute_upper_bounds
from repro.apps import netcache_linked, netcache_source
from repro.core import compile_source
from repro.core.layout import LayoutBuilder
from repro.ilp import solve
from repro.lang import check_program, parse_program
from repro.pisa import small_target, tofino
from repro.structures import CMS_SOURCE

from ..conftest import bb_solves
from .test_layout_encoding import t6
from .test_layout_pins import SOURCES


def solved_builder(program: str, target):
    """``(builder, solution)`` after the builder's own solve, so the
    objective is attached; ``program`` is a key of ``SOURCES``,
    ``"netcache-linked"`` or P4All source text."""
    if program == "netcache-linked":
        linked = netcache_linked(with_routing=False)
        info = check_program(linked.program)
        info.namespace = linked.namespace
        objective = dict(utility_terms=linked.utility_terms)
    else:
        source = SOURCES[program]() if program in SOURCES else program
        info = check_program(parse_program(source))
        objective = dict(utility=info.program.optimize().utility)
    ir = build_ir(info, "Ingress")
    builder = LayoutBuilder(ir, compute_upper_bounds(ir, target), target)
    return builder, builder.solve(**objective)


#: g per program: NetCache's 0.4 · cells + 0.6 · cells weights meet on
#: 0.2; SketchLearn's nine levels all grow together
LATTICES = {
    "netcache-linked": Fraction(1, 5),
    "netcache": Fraction(1, 5),
    "cms": Fraction(1),
    "sketchlearn": Fraction(9),
    "conquest": Fraction(4),
    "precision": Fraction(1),
}


@pytest.mark.parametrize("program", sorted(LATTICES))
def test_lattice_step(program):
    builder, _solution = solved_builder(program, t6())
    assert builder.utility_lattice() == LATTICES[program]


def test_netcache_start_is_certified_on_the_lattice():
    # B is 3 522.56 and the start 3 522.2: 1.02e-4 apart, just over the
    # rule. On the 0.2 lattice B is 3 522.4, 5.7e-5 away.
    builder, solution = solved_builder("netcache-linked", t6())
    lp, _start = builder.start()
    assert lp.objective == pytest.approx(3522.56, abs=0.01)
    assert solution.incumbent_source == "lp-certified"
    assert solution.mip_dual_bound == pytest.approx(3522.4, abs=1e-9)
    assert solution.mip_dual_bound < lp.objective


#: CMS under a ``min()`` utility, written in the source
CMS_MIN_SOURCE = CMS_SOURCE.replace(
    "optimize cms_rows * cms_cols;",
    "optimize min(cms_rows * cms_cols, 512 * cms_rows);")


def test_min_utility_has_no_lattice():
    # The min() aux column is continuous and on no lattice: the start is
    # held to the LP bound itself.
    assert CMS_MIN_SOURCE != CMS_SOURCE
    builder, solution = solved_builder(CMS_MIN_SOURCE, t6())
    assert builder.utility_lattice() is None
    lp, _start = builder.start()
    assert solution.incumbent_source == "lp-certified"
    assert solution.mip_dual_bound == lp.objective


def test_min_utility_compiles_from_source():
    compiled = compile_source(CMS_MIN_SOURCE, t6())
    symbols = compiled.symbol_values
    assert compiled.solution.objective == min(
        symbols["cms_rows"] * symbols["cms_cols"], 512 * symbols["cms_rows"])


#: lattice-certified cases small enough for the branch and bound: the
#: first is one where rounding to the lattice lowers B (440.32 → 440.2)
SMALL_CERTIFIED = {
    "netcache.t6m8": (netcache_source(with_routing=False),
                      dataclasses.replace(tofino(), stages=6,
                                          memory_bits_per_stage=8 * 1024)),
    "cms-weighted.small": (CMS_SOURCE.replace(
        "optimize cms_rows * cms_cols;",
        "optimize 0.6 * (cms_rows * cms_cols) + 0.5 * cms_rows;"),
        small_target()),
    "cms.small": (CMS_SOURCE, small_target()),
}


@pytest.mark.parametrize("case", sorted(SMALL_CERTIFIED))
def test_rounded_bound_is_no_lower_than_the_exact_optimum(case):
    source, target = SMALL_CERTIFIED[case]
    builder, solution = solved_builder(source, target)
    assert builder.utility_lattice() is not None
    assert solution.incumbent_source == "lp-certified"
    with bb_solves():
        exact = solve(builder.layout.model)
    assert exact.status.ok
    assert solution.mip_dual_bound >= exact.objective - 1e-9
    assert solution.objective >= exact.objective * (1 - 1e-4)
