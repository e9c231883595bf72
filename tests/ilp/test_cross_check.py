"""Property test: both exact solvers (HiGHS through ``ilp.solve``, the
branch and bound by name) agree on random small MILPs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ilp import LinExpr, Model, SolveStatus, VarType, solve
from repro.ilp.solver_bb import solve_branch_and_bound


@st.composite
def random_milp(draw):
    """A small bounded MILP with random constraints and objective."""
    num_vars = draw(st.integers(min_value=1, max_value=4))
    m = Model("random")
    xs = []
    for i in range(num_vars):
        vartype = draw(st.sampled_from([VarType.BINARY, VarType.INTEGER]))
        ub = 1 if vartype is VarType.BINARY else draw(st.integers(1, 8))
        xs.append(m.add_var(f"x{i}", lb=0, ub=ub, vartype=vartype))
    num_constrs = draw(st.integers(min_value=0, max_value=4))
    for _ in range(num_constrs):
        coefs = [draw(st.integers(-3, 3)) for _ in xs]
        rhs = draw(st.integers(-5, 15))
        expr = LinExpr.total(c * x for c, x in zip(coefs, xs))
        sense = draw(st.sampled_from(["<=", ">="]))
        m.add_constr(expr <= rhs if sense == "<=" else expr >= rhs)
    obj_coefs = [draw(st.integers(-4, 4)) for _ in xs]
    m.maximize(LinExpr.total(c * x for c, x in zip(obj_coefs, xs)))
    return m


class TestSolverAgreement:
    @settings(max_examples=40, deadline=None)
    @given(random_milp())
    def test_backends_agree_on_objective(self, model):
        a = solve(model)
        b = solve_branch_and_bound(model)
        assert a.status == b.status
        if a.status is SolveStatus.OPTIMAL:
            assert a.objective == pytest.approx(b.objective, abs=1e-5)
            assert a.check(model)
            assert b.check(model)
