"""Exact-solver tests for both solvers: HiGHS through ``ilp.solve``, and
the branch and bound called by name."""

import math

import pytest

from repro.ilp import (
    LinExpr,
    Model,
    Solution,
    SolveStatus,
    SolverError,
    VarType,
    solve,
)
from repro.ilp.solver_bb import solve_branch_and_bound

SOLVERS = pytest.mark.parametrize(
    "solver", [solve, solve_branch_and_bound], ids=["scipy", "bb"])


def knapsack_model():
    m = Model("knapsack")
    weights = [3, 4, 5, 9, 4]
    values = [3, 6, 8, 10, 5]
    xs = [m.add_var(f"x{i}", vartype=VarType.BINARY) for i in range(5)]
    m.add_constr(LinExpr.total(w * x for w, x in zip(weights, xs)) <= 12)
    m.maximize(LinExpr.total(v * x for v, x in zip(values, xs)))
    return m, xs


@SOLVERS
class TestBothBackends:
    def test_knapsack_optimum(self, solver):
        m, xs = knapsack_model()
        sol = solver(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(17.0)
        assert [sol.int_value(x) for x in xs] == [1, 1, 1, 0, 0]
        assert sol.check(m)

    def test_infeasible(self, solver):
        m = Model()
        x = m.add_var("x", lb=0, ub=5, vartype=VarType.INTEGER)
        m.add_constr(x >= 3)
        m.add_constr(x <= 2)
        m.maximize(1 * x)
        assert solver(m).status is SolveStatus.INFEASIBLE

    def test_minimization(self, solver):
        m = Model()
        x = m.add_var("x", lb=0, ub=10, vartype=VarType.INTEGER)
        m.add_constr(2 * x >= 7)
        m.minimize(1 * x)
        sol = solver(m)
        assert sol.int_value(x) == 4

    def test_equality_constraints(self, solver):
        m = Model()
        x = m.add_var("x", ub=10, vartype=VarType.INTEGER)
        y = m.add_var("y", ub=10, vartype=VarType.INTEGER)
        m.add_constr(x + y == 7)
        m.add_constr(x - y == 1)
        m.maximize(1 * x)
        sol = solver(m)
        assert (sol.int_value(x), sol.int_value(y)) == (4, 3)

    def test_mixed_integer_continuous(self, solver):
        m = Model()
        x = m.add_var("x", ub=10)  # continuous
        y = m.add_var("y", ub=10, vartype=VarType.INTEGER)
        m.add_constr(x + y <= 5.5)
        m.maximize(x + 2 * y)
        sol = solver(m)
        assert sol.int_value(y) == 5
        assert sol.value(x) == pytest.approx(0.5)

    def test_pure_lp(self, solver):
        m = Model()
        x = m.add_var("x", ub=4.5)
        m.maximize(3 * x)
        sol = solver(m)
        assert sol.objective == pytest.approx(13.5)

    def test_big_m_indicator_pattern(self, solver):
        # The layout ILP's main linearization pattern must be exact.
        m = Model()
        placed = m.add_var("placed", vartype=VarType.BINARY)
        amount = m.add_var("amount", ub=100, vartype=VarType.INTEGER)
        m.add_constr(amount <= 100 * placed)
        m.add_constr(amount >= 30 - 100 * (1 - placed))
        m.maximize(amount - 20 * placed)
        sol = solver(m)
        assert sol.int_value(placed) == 1
        assert sol.int_value(amount) == 100


class TestBranchAndBoundSpecifics:
    def test_requires_finite_integer_bounds(self):
        m = Model()
        m.add_var("x", vartype=VarType.INTEGER)  # unbounded above
        m.maximize(LinExpr())
        with pytest.raises(SolverError, match="finite bounds"):
            solve_branch_and_bound(m)

    def test_node_limit_returns_timeout(self):
        m, _ = knapsack_model()
        sol = solve_branch_and_bound(m, max_nodes=0)
        assert sol.status in (SolveStatus.TIMEOUT, SolveStatus.OPTIMAL)

    def test_unbounded_lp_detected(self):
        m = Model()
        x = m.add_var("x")  # continuous unbounded
        m.maximize(1 * x)
        assert solve_branch_and_bound(m).status is SolveStatus.UNBOUNDED


class TestDispatcher:
    def test_auto_resolves(self):
        # ``ilp.solve`` is HiGHS, with nothing to choose.
        m, _ = knapsack_model()
        sol = solve(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.backend == "scipy-highs"
