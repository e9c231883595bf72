"""ILP modeling-layer tests."""

import math

import numpy as np
import pytest

from repro.ilp import LinExpr, Model, ModelError, Sense, VarType


class TestLinExpr:
    def test_arithmetic(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        expr = 2 * x + 3 * y - 4
        assert expr.terms[x] == 2
        assert expr.terms[y] == 3
        assert expr.constant == -4

    def test_subtraction_and_negation(self):
        m = Model()
        x = m.add_var("x")
        expr = 5 - x
        assert expr.terms[x] == -1 and expr.constant == 5
        assert (-expr).terms[x] == 1

    def test_total(self):
        m = Model()
        xs = [m.add_var(f"x{i}") for i in range(4)]
        expr = LinExpr.total(xs)
        assert all(expr.terms[x] == 1 for x in xs)

    def test_value_evaluation(self):
        m = Model()
        x = m.add_var("x")
        expr = 3 * x + 1
        assert expr.value({x: 2.0}) == 7.0
        assert expr.value({}) == 1.0

    def test_nonlinear_product_rejected(self):
        m = Model()
        x = m.add_var("x")
        with pytest.raises(ModelError, match="scalar"):
            (1 * x) * (1 * x)


class TestConstraints:
    def test_senses(self):
        m = Model()
        x = m.add_var("x")
        le = x <= 5
        ge = x >= 2
        eq = 1 * x == 3
        assert le.sense is Sense.LE
        assert ge.sense is Sense.GE
        assert eq.sense is Sense.EQ

    def test_satisfaction(self):
        m = Model()
        x = m.add_var("x")
        c = 2 * x <= 10
        assert c.satisfied({x: 5.0})
        assert not c.satisfied({x: 5.1})

    def test_cross_model_variable_rejected(self):
        m1, m2 = Model(), Model()
        x1 = m1.add_var("x")
        with pytest.raises(ModelError, match="another model"):
            m2.add_constr(x1 <= 1)

    def test_non_constraint_rejected(self):
        with pytest.raises(ModelError, match="expects a Constraint"):
            Model().add_constr(True)  # e.g. accidental `x == y` on floats


class TestModel:
    def test_binary_bounds_forced(self):
        m = Model()
        b = m.add_var("b", lb=-5, ub=9, vartype=VarType.BINARY)
        assert (b.lb, b.ub) == (0.0, 1.0)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ModelError, match="lb"):
            Model().add_var("x", lb=2, ub=1)

    def test_duplicate_names_disambiguated(self):
        m = Model()
        a = m.add_var("x")
        b = m.add_var("x")
        assert a.name != b.name

    def test_is_feasible_checks_everything(self):
        m = Model()
        x = m.add_var("x", lb=0, ub=4, vartype=VarType.INTEGER)
        m.add_constr(x >= 2)
        assert m.is_feasible({x: 3.0})
        assert not m.is_feasible({x: 1.0})   # constraint
        assert not m.is_feasible({x: 5.0})   # bound
        assert not m.is_feasible({x: 2.5})   # integrality

    def test_is_feasible_is_the_row_by_row_check(self):
        # is_feasible runs on the cached CSC arrays; the loop it replaced
        # is the reference, on a compile's layout model and assignments
        # around its solution.
        from repro.structures import CMS_SOURCE

        from ..core.test_layout_encoding import build, t6

        builder, program = build(CMS_SOURCE, t6())
        best = builder.solve(utility=program.optimize().utility)
        model = builder.layout.model
        values = builder.encode_assignment(
            best.symbol_values, best.instance_stage, best.register_alloc,
            best.iteration_active)
        rng = np.random.default_rng(7)
        cases = [values, {}]
        for step in (1.0, -1.0, 0.5, 1e-7, 1e-3):
            for var in rng.choice(model.variables, size=12, replace=False):
                cases.append({**values, var: values[var] + step})
        verdicts = [model.is_feasible(case) for case in cases]
        assert verdicts == [_is_feasible_by_rows(model, case)
                            for case in cases]
        assert verdicts[0] and True in verdicts[2:] and False in verdicts

    def test_matrix_form(self):
        m = Model()
        x = m.add_var("x", ub=10)
        y = m.add_var("y", ub=10, vartype=VarType.INTEGER)
        m.add_constr(x + 2 * y <= 8)
        m.add_constr(x - y >= 1)
        m.add_constr(1 * x == 4)
        m.maximize(x + y)
        c, a, lo, hi, (lbs, ubs), integrality = m.to_matrix_form()
        assert c.tolist() == [-1, -1]  # negated for maximization
        assert a.shape == (3, 2)
        assert hi[0] == 8 and math.isinf(lo[0])
        assert lo[1] == 1 and math.isinf(hi[1])
        assert lo[2] == hi[2] == 4
        assert integrality.tolist() == [0, 1]
        assert ubs.tolist() == [10, 10]


def _is_feasible_by_rows(model, assignment, tol=1e-6):
    """The check ``Model.is_feasible`` was, variable by variable and row
    by row: the reference for the array form."""
    for var in model.variables:
        val = assignment.get(var, 0.0)
        if val < var.lb - tol or val > var.ub + tol:
            return False
        if var.vartype is not VarType.CONTINUOUS and \
                abs(val - round(val)) > tol:
            return False
    return all(c.satisfied(assignment, tol) for c in model.constraints)


def test_solution_values_round_as_round_does():
    from repro.ilp.solver_scipy import _values

    m = Model()
    raw = [-0.4, 0.5, 1.5, 2.5, -2.5, 3.0000001, -0.0, 7.49, 0.2, -0.3]
    kinds = [VarType.INTEGER, VarType.BINARY, VarType.INTEGER,
             VarType.INTEGER, VarType.INTEGER, VarType.INTEGER,
             VarType.INTEGER, VarType.CONTINUOUS, VarType.CONTINUOUS,
             VarType.CONTINUOUS]
    xs = [m.add_var(f"x{i}", lb=-10, ub=10, vartype=kind)
          for i, kind in enumerate(kinds)]
    got = _values(m, np.array(raw))
    for var, value in zip(xs, raw):
        want = value if var.vartype is VarType.CONTINUOUS \
            else float(round(value))
        assert got[var] == want
        assert math.copysign(1.0, got[var]) == math.copysign(1.0, want)
