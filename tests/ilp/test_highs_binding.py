"""The HiGHS backend drives scipy's bundled ``_Highs`` binding directly.

It must reach HiGHS without importing ``scipy.optimize`` and, unseeded,
must solve exactly as ``scipy.optimize.milp`` did: ``solve_with_milp``
below is that former backend, kept here as the reference only. Status,
values, objective, dual bound, gap and node count must agree exactly on
random MILPs, on every unseeded solve of the layouts the six apps get on
two targets, and on the edge cases. A seeded search (``warm_start``,
which milp cannot take) must reach the unseeded one's decisions.
"""

import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import layout as layout_module
from repro.core.layout import LayoutBuilder
from repro.ilp import (
    LinExpr,
    Model,
    Solution,
    SolveStatus,
    SolverError,
    VarType,
    solve,
)
from repro.ilp import solver_scipy
from repro.ilp.solver_scipy import highs_core, solve_scipy
from repro.pisa import tofino

from ..core.test_layout_encoding import t6
from ..core.test_layout_pins import BOUND_TOLERANCE, CASES, SOURCES, compile_case
from .test_cross_check import random_milp
from .test_solvers import knapsack_model

APPS = (*SOURCES, "netcache-linked")


def solve_with_milp(model, time_limit=None, fixed=None, rel_gap=None):
    """The backend as it was: one ``scipy.optimize.milp`` call."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    c, a, lo, hi, (lbs, ubs), integrality = model.to_matrix_form(fixed)
    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if rel_gap is not None:
        options["mip_rel_gap"] = float(rel_gap)
    constraints = [LinearConstraint(a, lo, hi)] if len(model.constraints) else []
    result = milp(c=c, constraints=constraints, bounds=Bounds(lbs, ubs),
                  integrality=integrality, options=options)
    status = {0: SolveStatus.OPTIMAL, 1: SolveStatus.TIMEOUT,
              2: SolveStatus.INFEASIBLE, 3: SolveStatus.UNBOUNDED,
              }.get(result.status, SolveStatus.ERROR)
    if result.x is None:
        return Solution(status=status, backend="scipy-highs")
    dual_bound = result.mip_dual_bound
    if dual_bound is not None:
        sign = -1.0 if model.objective.maximize else 1.0
        dual_bound = sign * float(dual_bound) + model.objective.expr.constant
    values = {
        var: float(result.x[var.index]) if var.vartype is VarType.CONTINUOUS
        else float(round(result.x[var.index]))
        for var in model.variables
    }
    return Solution(
        status=status,
        objective=model.objective.expr.value(values),
        values=values,
        backend="scipy-highs",
        nodes_explored=int(result.mip_node_count or 0),
        mip_dual_bound=dual_bound,
        mip_gap=None if result.mip_gap is None else float(result.mip_gap),
    )


def decisions(solution: Solution):
    """Everything a solve decides (not its seconds)."""
    return (solution.status, solution.values, solution.objective,
            solution.mip_dual_bound, solution.mip_gap,
            solution.nodes_explored)


def assert_same_as_milp(model, **kwargs):
    got = solve_scipy(model, **kwargs)
    assert decisions(got) == decisions(solve_with_milp(model, **kwargs))
    return got


# ------------------------------------------------------------- the loader --

def test_compile_leaves_scipy_optimize_unimported():
    script = textwrap.dedent("""
        import dataclasses, sys
        import repro.core
        from repro.core import compile_source
        from repro.pisa import tofino
        from repro.structures import CMS_SOURCE

        t6 = dataclasses.replace(tofino(), stages=6,
                                 memory_bits_per_stage=64 * 1024)
        compiled = compile_source(CMS_SOURCE, t6)
        assert compiled.symbol_values, compiled
        assert "scipy.optimize" not in sys.modules, sorted(
            name for name in sys.modules if name.startswith("scipy"))
        from repro.ilp.solver_scipy import highs_core
        core = highs_core()

        import numpy as np
        import scipy.optimize
        from scipy.optimize._highspy import _core
        assert _core is core
        result = scipy.optimize.milp(
            c=-np.array([0.0, 1.0]),
            constraints=scipy.optimize.LinearConstraint(
                [[-1, 1], [3, 2], [2, 3]], -np.inf, [1, 12, 12]),
            integrality=np.ones(2))
        assert result.status == 0 and list(result.x) == [1.0, 2.0], result
        print("ok")
    """)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("ok")


def test_highs_chatter_stays_off_stdout(monkeypatch, capfd):
    # HiGHS prints some lines from C onto descriptor 1 whatever
    # log_to_console says; stdout is where `p4all compile` writes the P4.
    # The stub writes there whichever path the search takes.
    core = highs_core()

    class Chatty(core._Highs):
        def run(self):
            os.write(1, b"HighsMipSolverData::chatter\n")
            return super().run()

    monkeypatch.setattr(core, "_Highs", Chatty)
    model, _xs = knapsack_model()
    assert solve_scipy(model).status is SolveStatus.OPTIMAL
    out, err = capfd.readouterr()
    assert out == ""
    assert err == "HighsMipSolverData::chatter\n"


def test_buffered_c_stdio_keeps_its_order():
    # A stdout that is a file is fully buffered by C stdio unless Python
    # runs unbuffered: C output from before a solve must still reach
    # stdout, and C output from inside it must not.
    script = textwrap.dedent("""
        import ctypes
        from repro.ilp import LinExpr, Model, VarType
        from repro.ilp.solver_scipy import highs_core, solve_scipy

        libc = ctypes.CDLL(None)
        core = highs_core()

        class Chatty(core._Highs):
            def run(self):
                status = super().run()
                libc.printf(b"inside\\n")
                return status

        core._Highs = Chatty
        model = Model()
        x = model.add_var("x", ub=3, vartype=VarType.INTEGER)
        model.maximize(LinExpr.from_term(x))
        libc.printf(b"before\\n")
        assert solve_scipy(model).objective == 3
        libc.printf(b"after\\n")
    """)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "before\nafter\n"
    assert done.stderr == "inside\n"


def test_seed_is_the_first_incumbent():
    # Stopped before it finds anything itself, a seeded search still
    # holds the seed; an infeasible seed is dropped.
    model = market_split()
    slack = {var: float(var.ub) for var in model.variables
             if var.vartype is VarType.CONTINUOUS}
    seed = {var: slack.get(var, 0.0) for var in model.variables}
    assert model.is_feasible(seed)
    got = solve_scipy(model, time_limit=0.0, warm_start=seed)
    assert got.status is SolveStatus.TIMEOUT and got.has_incumbent
    assert got.values == seed
    bad = {var: 5.0 for var in model.variables}
    got = solve_scipy(model, time_limit=0.0, warm_start=bad)
    assert got.status is SolveStatus.TIMEOUT and not got.has_incumbent


def test_loader_reuses_a_loaded_binding():
    assert highs_core() is sys.modules["scipy.optimize._highspy._core"]


def test_regular_import_when_the_file_is_elsewhere(monkeypatch):
    from scipy.optimize._highspy import _core

    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    monkeypatch.setattr(solver_scipy, "_load_extension", lambda: None)
    highs_core.cache_clear()
    try:
        assert highs_core() is _core
    finally:
        highs_core.cache_clear()


def test_missing_binding_fails_loudly(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core",
                        type(sys)("stub"))
    highs_core.cache_clear()
    try:
        with pytest.raises(SolverError, match=r"scipy >= 1\.17"):
            highs_core()
        with pytest.raises(SolverError, match=r"scipy >= 1\.17"):
            solve(Model())
    finally:
        highs_core.cache_clear()


# ------------------------------------------------------- same as milp did --

class TestSameAsMilp:
    @settings(max_examples=40, deadline=None)
    @given(random_milp(), st.sampled_from([None, 0.0, 0.5]))
    def test_random_milps(self, model, rel_gap):
        assert_same_as_milp(model, rel_gap=rel_gap)

    @pytest.mark.parametrize("target", ["t6", "tofino"])
    @pytest.mark.parametrize("app", APPS)
    def test_layout_models(self, app, target, monkeypatch):
        # Every solve of the compile against milp on the model as it
        # stands at that call. The unseeded ones — the LP relaxation and
        # the start step's restricted solves, a search with no start,
        # the size re-solve and the placement pass — agree bit for bit.
        # milp cannot seed a search, so a search seeded with the start
        # is held to what decides the compile: it stops at the unseeded
        # search's symbol values, and its bound is no lower than the
        # utility the compile returns (the pin, in test_layout_pins).
        built, calls = [], []
        build = LayoutBuilder.build

        def recording_build(builder):
            built.append(builder.layout)
            return build(builder)

        def differential(model, time_limit=None, warm_start=None,
                         fixed=None, rel_gap=None):
            got = solve(model, time_limit=time_limit, warm_start=warm_start,
                        fixed=fixed, rel_gap=rel_gap)
            want = solve_with_milp(model, time_limit=time_limit, fixed=fixed,
                                   rel_gap=rel_gap)
            calls.append((warm_start is not None, got, want))
            return got

        monkeypatch.setattr(LayoutBuilder, "build", recording_build)
        monkeypatch.setattr(layout_module, "solve", differential)
        compiled = compile_case(app, t6() if target == "t6" else tofino())
        (lm,) = built
        symbolics = (*lm.loop_symbolics, *lm.size_vars, *lm.free_sym_vars)

        def symbols(solution):
            return {sym: lm.symbolic_expr(sym).value(solution.values)
                    for sym in symbolics}

        assert 3 <= len(calls) <= 6
        assert sum(seeded for seeded, _got, _want in calls) <= 1
        for seeded, got, want in calls:
            if not seeded:
                assert decisions(got) == decisions(want)
                continue
            assert got.status is want.status is SolveStatus.OPTIMAL
            assert symbols(got) == symbols(want)
            assert got.mip_dual_bound >= compiled.solution.objective \
                * (1 - BOUND_TOLERANCE)


#: the six (program, target) pairs the ``compile-cold`` workload compiles
COMPILE_COLD = ("cms.t6", "conquest.t6", "netcache-linked.t6",
                "netcache.tofino", "precision.t6", "sketchlearn.t6")


def dense_csc(a):
    """The column-wise arrays HiGHS got when the backend built them from
    the dense matrix on every call."""
    col_of, row_of = np.nonzero(a.T)
    start = np.concatenate(
        ([0], np.cumsum(np.bincount(col_of, minlength=a.shape[1])))
    ).astype(np.int32)
    return start, row_of.astype(np.int32), a.T[col_of, row_of]


@pytest.mark.parametrize("case", COMPILE_COLD)
def test_sparse_rows_are_the_dense_matrix(case, monkeypatch):
    # The rows are built once per model and shared by its copies; on
    # every solve of a compile HiGHS still receives exactly the arrays
    # the dense matrix gives, so no search path can move.
    from repro.ilp import solver

    dense, passed = [], []
    solve_highs, pass_model = solver.solve_scipy, solver_scipy._pass_model

    def recording(model, fixed=None, **kwargs):
        dense.append(model.to_matrix_form(fixed))
        return solve_highs(model, fixed=fixed, **kwargs)

    def capturing(core, highs, *arrays):
        passed.append(arrays)
        return pass_model(core, highs, *arrays)

    monkeypatch.setattr(solver, "solve_scipy", recording)
    monkeypatch.setattr(solver_scipy, "_pass_model", capturing)
    compile_case(*CASES[case])
    assert len(passed) == len(dense) >= 3
    for (c, a, lo, hi, (lbs, ubs), integrality), got in zip(dense, passed):
        got_c, got_matrix, got_lo, got_hi, got_lbs, got_ubs, got_int = got
        for want_array, got_array in zip(dense_csc(a), got_matrix):
            assert want_array.dtype == got_array.dtype
            assert np.array_equal(want_array, got_array)
        for want_array, got_array in ((c, got_c), (lo, got_lo), (hi, got_hi),
                                      (lbs, got_lbs), (ubs, got_ubs),
                                      (integrality, got_int)):
            assert np.array_equal(want_array, got_array)


# ------------------------------------------------------------ edge cases --

def market_split(m=4, n=30, seed=3):
    """Cornuéjols–Dawande market split with slacks: ``x = 0`` is feasible
    at once, and the optimum takes HiGHS far longer than a second."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 100, size=(m, n))
    model = Model("market-split")
    xs = [model.add_var(f"x{j}", vartype=VarType.BINARY) for j in range(n)]
    slack = LinExpr()
    for i in range(m):
        rhs = int(a[i].sum()) // 2
        s = model.add_var(f"s{i}", ub=rhs, vartype=VarType.CONTINUOUS)
        model.add_constr(
            LinExpr.total(int(a[i, j]) * x for j, x in enumerate(xs)) + s == rhs)
        slack = slack + s
    model.minimize(slack)
    return model


class TestEdgeCases:
    def test_no_constraints(self):
        m = Model()
        x = m.add_var("x", ub=7, vartype=VarType.INTEGER)
        y = m.add_var("y", ub=2.5, vartype=VarType.CONTINUOUS)
        m.maximize(3 * x + y)
        sol = assert_same_as_milp(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.values == {x: 7.0, y: 2.5}

    def test_all_continuous(self):
        m = Model()
        x = m.add_var("x", ub=10, vartype=VarType.CONTINUOUS)
        y = m.add_var("y", ub=10, vartype=VarType.CONTINUOUS)
        m.add_constr(x + 2 * y <= 7)
        m.add_constr(3 * x + y <= 9)
        m.maximize(x + y)
        sol = assert_same_as_milp(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(4.6)
        # An LP has no MIP search to report.
        assert (sol.nodes_explored, sol.mip_dual_bound, sol.mip_gap) \
            == (0, None, None)

    def test_infeasible(self):
        m = Model()
        x = m.add_var("x", ub=5, vartype=VarType.INTEGER)
        m.add_constr(2 * x == 3)
        m.maximize(x)
        sol = assert_same_as_milp(m)
        assert sol.status is SolveStatus.INFEASIBLE
        assert not sol.has_incumbent

    # HiGHS's MIP solver calls an unbounded MIP "unbounded or
    # infeasible", which milp reported as status 4: an error.
    @pytest.mark.parametrize("vartype, status", [
        (VarType.INTEGER, SolveStatus.ERROR),
        (VarType.CONTINUOUS, SolveStatus.UNBOUNDED),
    ])
    def test_unbounded(self, vartype, status):
        m = Model()
        x = m.add_var("x", ub=float("inf"), vartype=vartype)
        y = m.add_var("y", ub=3, vartype=vartype)
        m.add_constr(x - y >= 0)
        m.maximize(x + y)
        sol = assert_same_as_milp(m)
        assert sol.status is status
        assert not sol.has_incumbent

    def test_out_of_range_option_keeps_the_default(self):
        model, _xs = knapsack_model()
        with pytest.warns(RuntimeWarning, match="time_limit"):
            sol = solve_scipy(model, time_limit=-1.0)
        with pytest.warns(match="Invalid option value"):
            want = solve_with_milp(model, time_limit=-1.0)
        assert decisions(sol) == decisions(want)
        assert sol.status is SolveStatus.OPTIMAL

    def test_time_limit_before_an_incumbent(self):
        sol = assert_same_as_milp(market_split(), time_limit=0.0)
        assert sol.status is SolveStatus.TIMEOUT
        assert not sol.has_incumbent

    def test_time_limit_with_an_incumbent(self):
        # Where a wall clock stops the search is not reproducible, so
        # only the mapping is compared with milp here.
        model = market_split()
        started = time.perf_counter()
        sol = solve_scipy(model, time_limit=0.5)
        assert time.perf_counter() - started < 30
        want = solve_with_milp(model, time_limit=0.5)
        for got in (sol, want):
            assert got.status is SolveStatus.TIMEOUT
            assert got.has_incumbent
            assert model.is_feasible(got.values, 1e-5)
            assert got.nodes_explored > 0
            assert got.mip_dual_bound <= got.objective
            assert got.mip_gap > 0
