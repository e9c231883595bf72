"""Loop-unrolling upper-bound tests (§4.2)."""

import dataclasses

import pytest

from repro.analysis import build_ir, compute_upper_bounds
from repro.lang import check_program, parse_program
from repro.pisa.resources import small_target, toy_three_stage
from repro.structures import CMS_SOURCE


def bounds_for(source: str, target, exclusion_as_precedence=False):
    ir = build_ir(check_program(parse_program(source)), "Ingress")
    return compute_upper_bounds(ir, target, exclusion_as_precedence)


class TestFigure9:
    def test_worked_example_bound_is_two(self):
        result = bounds_for(CMS_SOURCE, toy_three_stage()).results["cms_rows"]
        assert result.bound == 2
        assert result.criterion == "stages"
        # Path lengths grow 2, 3, 4 with K = 1, 2, 3 (Figure 9).
        assert result.path_lengths == [2, 3, 4]

    def test_more_stages_relax_the_bound(self):
        five = dataclasses.replace(toy_three_stage(), stages=5)
        result = bounds_for(CMS_SOURCE, five).results["cms_rows"]
        assert result.bound == 4  # path length K+1 <= 5


INDEPENDENT = """
symbolic int n;
struct metadata {
    bit<32> fkey;
    bit<32>[n] slot;
}
register<bit<8>>[64][n] arr;
action mark()[int i] {
    meta.slot[i] = hash(i, meta.fkey);
    arr[i].write(meta.slot[i], 1);
}
control Ingress(inout metadata meta) {
    apply { for (i < n) { mark()[i]; } }
}
"""


class TestResourceCriteria:
    def test_alu_criterion_for_independent_iterations(self):
        # No cross-iteration dependencies: the chain criterion never
        # fires; ALUs bound the loop before PHV (31) or memory would.
        target = small_target(stages=2, memory_kb=512)
        result = bounds_for(INDEPENDENT, target).results["n"]
        assert result.criterion == "alus"
        # Each iteration: hf=1, hl=2 -> 3 ALUs; budget (2+8)*2 = 20 -> 6 fit.
        assert result.bound == 6

    def test_phv_criterion(self):
        target = small_target(stages=2, memory_kb=512)
        # PHV budget: 1024 - 32 fixed = 992; 32 bits/iter -> 31 iterations.
        result = bounds_for(INDEPENDENT, target).results["n"]
        assert result.bound <= 31

    def test_memory_criterion(self):
        source = INDEPENDENT.replace("[64][n]", "[8192][n]")
        tiny = small_target(stages=2, memory_kb=1)  # 1024 bits/stage
        result = bounds_for(source, tiny).results["n"]
        # >= 1 cell of 8 bits per iteration, 2048 bits total -> 256 cap,
        # but ALU criterion may fire earlier; either way it's bounded.
        assert result.bound <= 256

    def test_assume_cap_short_circuits(self):
        source = INDEPENDENT + "\nassume n <= 3;"
        target = small_target(stages=8, memory_kb=512)
        result = bounds_for(source, target).results["n"]
        assert result.bound == 3
        assert result.criterion == "assume"

    def test_hard_cap_backstop(self, monkeypatch):
        # ALUs would stop the loop at 26 (3 per iteration, budget 80);
        # the cap fires first.
        monkeypatch.setattr("repro.analysis.unroll._HARD_CAP", 10)
        target = small_target(stages=8, memory_kb=512)
        result = bounds_for(INDEPENDENT, target).results["n"]
        assert result.bound == 10
        assert result.criterion == "cap"


class TestExclusionHandling:
    def test_all_precedence_mode_tightens_bound(self):
        # With exclusion edges the min-chain gives bound S-1; treating
        # them as precedence forces a strict order with the same length,
        # so bounds can only shrink or stay equal.
        target = toy_three_stage()
        full = bounds_for(CMS_SOURCE, target).results["cms_rows"].bound
        degraded = bounds_for(
            CMS_SOURCE, target, exclusion_as_precedence=True,
        ).results["cms_rows"].bound
        assert degraded <= full


class TestNoLoops:
    def test_program_without_loops_has_no_bounds(self):
        source = """
        struct metadata { bit<32> x; }
        control Ingress(inout metadata meta) {
            apply { meta.x = 1; }
        }
        """
        assert bounds_for(source, toy_three_stage()).results == {}
