"""Seeded branch-and-bound ≡ cold solve (differential).

The warm start's solver seam: a decoded layout goes back to a variable
assignment through ``LayoutBuilder.encode_assignment`` and
``ilp.solve(warm_start=)`` takes it as the incumbent — on HiGHS through
``_Highs.setSolution``. The compile's own seed is the start step's
layout (``LayoutBuilder.start``); the driver and the planner thread no
earlier layout through. Seeding must never change the answer, only the
work to reach it. Objectives are compared with slack far below any real
utility step (>= 0.4 here) but above the ~1e-4 noise the LP relaxation
carries at these objective scales.

The tests run the from-scratch branch and bound in HiGHS's place
(the ``bb_solver`` fixture swaps it in at ``ilp.solve``), except the
one that checks HiGHS takes the seed. The app set is the library
modules the branch and bound solves in under a second on the small
8-stage target.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import build_ir, compute_upper_bounds
from repro.core import LayoutBuilder
from repro.ilp import solve
from repro.lang import check_program, parse_program
from repro.pisa import small_target
from repro.structures import LIBRARY_SOURCES

#: Library apps where bb terminates quickly (< 1 s cold).
BB_APPS = ["bloom", "cms", "idtable"]


@pytest.fixture(scope="module")
def target():
    return small_target(stages=8, memory_kb=64)


def _cold(name, target):
    """``(builder, utility, cold LayoutSolution)`` of a library app."""
    program = parse_program(LIBRARY_SOURCES[name], name)
    ir = build_ir(check_program(program), "Ingress")
    builder = LayoutBuilder(ir, compute_upper_bounds(ir, target), target)
    utility = program.optimize().utility
    return builder, utility, builder.solve(utility=utility)


def _seeded(builder, utility, seed):
    """Re-solve ``builder``'s model with ``seed`` (a LayoutSolution,
    possibly of another model) as the incumbent; ``(decoded, seeded)``."""
    values = builder.encode_assignment(
        seed.symbol_values, seed.instance_stage, seed.register_alloc,
        seed.iteration_active)
    model = builder.layout.model
    seeded = values is not None and model.is_feasible(values, tol=1e-6)
    raw = solve(model, warm_start=values)
    return builder._decode(builder.resolve_sizes(raw), utility), seeded


bb = pytest.mark.usefixtures("bb_solver")


class TestWarmStartDifferential:
    @bb
    @pytest.mark.parametrize("name", BB_APPS)
    def test_same_answer_as_cold(self, name, target):
        builder, utility, cold = _cold(name, target)
        warm, seeded = _seeded(builder, utility, cold)
        assert seeded            # an optimum is a feasible point of its model
        assert warm.symbol_values == cold.symbol_values
        assert warm.objective == pytest.approx(cold.objective, abs=1e-3)
        # The seed is the optimum: the search can only confirm it, never
        # beat it, so warm never explores more than cold.
        assert warm.nodes_explored <= cold.nodes_explored

    @bb
    def test_incumbent_provenance(self, target):
        # A compile reports the path its layout took: CMS's start is
        # within 1e-4 of the LP bound, so no search ran. A raw solve
        # reports the back end's provenance: the seed, never improved.
        builder, utility, cold = _cold("cms", target)
        warm, _ = _seeded(builder, utility, cold)
        assert warm.incumbent_source == "warm-start"
        assert cold.incumbent_source == "lp-certified"
        assert cold.nodes_explored == 0

    @bb
    def test_warm_start_across_target_change(self, target):
        # The elastic-runtime case: the layout before a memory cut seeds
        # the re-solve after it. The old sizes exceed the new bounds; the
        # encoder clamps them, and the answer matches a cold solve.
        _, _, big = _cold("cms", target)
        cut = dataclasses.replace(
            target, memory_bits_per_stage=target.memory_bits_per_stage // 2
        )
        builder, utility, cold_cut = _cold("cms", cut)
        warm_cut, _ = _seeded(builder, utility, big)
        assert warm_cut.symbol_values == cold_cut.symbol_values
        assert warm_cut.objective == pytest.approx(cold_cut.objective, abs=1e-3)

    @bb
    def test_foreign_solution_ignored(self, target):
        # A layout of a different program is not a point of this model:
        # the encoder or the feasibility gate declines it and the search
        # runs unseeded to the cold answer.
        _, _, other = _cold("bloom", target)
        builder, utility, cold = _cold("cms", target)
        warm, seeded = _seeded(builder, utility, other)
        assert not seeded
        assert warm.incumbent_source != "warm-start"
        assert warm.symbol_values == cold.symbol_values
        assert warm.objective == pytest.approx(cold.objective, abs=1e-3)

    def test_scipy_seeded_same_answer(self, target):
        # HiGHS takes the seed as its first incumbent and searches on to
        # the cold answer; it keeps no provenance of its own.
        builder, utility, cold = _cold("cms", target)
        warm, seeded = _seeded(builder, utility, cold)
        assert seeded
        assert warm.symbol_values == cold.symbol_values
        assert warm.objective == cold.objective
        assert warm.incumbent_source == ""
