"""Utility-function linearization tests."""

import pytest

from repro.analysis import build_ir, compute_upper_bounds
from repro.core.errors import UtilityError
from repro.core.layout import LayoutBuilder
from repro.core.utility import linearize_condition, linearize_term
from repro.lang import Parser, check_program, parse_program
from repro.pisa.resources import small_target

SOURCE = """
symbolic int rows;
symbolic int cols;
symbolic int spare;
const int W = 8;
assume rows >= 1 && rows <= 3;
struct metadata {
    bit<32> fkey;
    bit<32>[rows] idx;
}
register<bit<32>>[cols][rows] grid;
action put()[int i] {
    meta.idx[i] = hash(i, meta.fkey);
    grid[i].add(meta.idx[i], 1);
}
control Ingress(inout metadata meta) {
    apply { for (i < rows) { put()[i]; } }
}
"""


@pytest.fixture(scope="module")
def layout_model():
    info = check_program(parse_program(SOURCE))
    ir = build_ir(info, "Ingress")
    target = small_target(stages=4, memory_kb=16)
    builder = LayoutBuilder(ir, compute_upper_bounds(ir, target), target)
    return builder.build(), info


class TestLinearizeTerm:
    def test_constant(self, layout_model):
        lm, info = layout_model
        expr = linearize_term(Parser("42").parse_expression(), lm, info)
        assert expr.constant == 42 and not expr.terms

    def test_const_name(self, layout_model):
        lm, info = layout_model
        expr = linearize_term(Parser("W * 2").parse_expression(), lm, info)
        assert expr.constant == 16

    def test_loop_symbolic_is_iteration_sum(self, layout_model):
        lm, info = layout_model
        expr = linearize_term(Parser("rows").parse_expression(), lm, info)
        assert len(expr.terms) == 3  # bound is 3 (assume)

    def test_size_symbolic_is_size_var(self, layout_model):
        lm, info = layout_model
        expr = linearize_term(Parser("cols").parse_expression(), lm, info)
        assert len(expr.terms) == 1
        (var,) = expr.terms
        assert "size[cols]" in var.name

    def test_count_times_size_maps_to_total_cells(self, layout_model):
        lm, info = layout_model
        expr = linearize_term(Parser("rows * cols").parse_expression(), lm, info)
        # One m-variable per (instance, stage): 3 instances x 4 stages.
        assert len(expr.terms) == 12

    def test_scaled_product(self, layout_model):
        lm, info = layout_model
        expr = linearize_term(Parser("0.4 * (rows * cols)").parse_expression(), lm, info)
        assert all(c == pytest.approx(0.4) for c in expr.terms.values())

    def test_weighted_sum(self, layout_model):
        lm, info = layout_model
        expr = linearize_term(
            Parser("2 * rows + 3 * cols - 1").parse_expression(), lm, info
        )
        assert expr.constant == -1
        assert len(expr.terms) == 4  # 3 iteration vars + 1 size var

    def test_division_by_constant(self, layout_model):
        lm, info = layout_model
        expr = linearize_term(Parser("rows / 2").parse_expression(), lm, info)
        assert all(c == pytest.approx(0.5) for c in expr.terms.values())

    def test_min_creates_bounded_aux(self, layout_model):
        lm, info = layout_model
        before = lm.model.num_constraints
        expr = linearize_term(Parser("min(rows, cols)").parse_expression(), lm, info)
        assert len(expr.terms) == 1
        assert lm.model.num_constraints == before + 2

    def test_unrelated_product_rejected(self, layout_model):
        lm, info = layout_model
        with pytest.raises(UtilityError, match="does not match any register"):
            linearize_term(Parser("rows * spare").parse_expression(), lm, info)

    def test_unknown_name_rejected(self, layout_model):
        lm, info = layout_model
        with pytest.raises(UtilityError, match="unknown name"):
            linearize_term(Parser("bogus").parse_expression(), lm, info)

    def test_symbolic_division_rejected(self, layout_model):
        lm, info = layout_model
        with pytest.raises(UtilityError, match="constant divisor"):
            linearize_term(Parser("rows / cols").parse_expression(), lm, info)


class TestLinearizeCondition:
    def test_conjunction_splits(self, layout_model):
        lm, info = layout_model
        constrs = linearize_condition(
            Parser("rows >= 1 && cols <= 512").parse_expression(), lm, info
        )
        assert len(constrs) == 2

    def test_strict_comparison_tightened(self, layout_model):
        lm, info = layout_model
        (constr,) = linearize_condition(Parser("rows < 3").parse_expression(), lm, info)
        # rows < 3 becomes rows + 1 <= 3, i.e. rows - 2 <= 0.
        assert constr.expr.constant == pytest.approx(-2)

    def test_product_condition(self, layout_model):
        lm, info = layout_model
        (constr,) = linearize_condition(
            Parser("rows * cols * 32 >= 1024").parse_expression(), lm, info
        )
        assert len(constr.expr.terms) == 12

    def test_disjunction_rejected(self, layout_model):
        lm, info = layout_model
        with pytest.raises(UtilityError, match="conjunctions"):
            linearize_condition(Parser("rows == 1 || rows == 2").parse_expression(), lm, info)
