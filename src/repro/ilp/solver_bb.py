"""From-scratch branch-and-bound MILP solver.

Implements classic LP-relaxation branch and bound:

* each node is the model plus tightened variable bounds;
* the LP relaxation is solved with scipy's HiGHS simplex (``linprog``);
* integer-infeasible relaxations are split on a most-fractional variable;
* a best-bound node order with incumbent pruning keeps the tree small;
* a rounding heuristic seeds the incumbent early.

This is not meant to beat HiGHS's own MILP engine, and no compile calls
it: it exists as an independent exact solver that HiGHS is
cross-checked against, on small models (``tests/ilp/test_cross_check.py``)
and on whole compiles with it put in the place of HiGHS — optimal
objective values are solver-independent, as the paper's design is even
though its prototype called Gurobi.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..obs import trace
from .model import Model, VarType
from .solution import Solution, SolveStatus, SolverError

__all__ = ["solve_branch_and_bound"]

_INT_TOL = 1e-6


@dataclass(order=True)
class _Node:
    """A branch-and-bound node ordered by LP bound (best-first)."""

    priority: float
    seq: int
    lbs: np.ndarray = field(compare=False)
    ubs: np.ndarray = field(compare=False)


def _solve_lp(c, a, lo, hi, lbs, ubs):
    """Solve the LP relaxation; returns (status, x, objective)."""
    from scipy.optimize import linprog

    a_ub_rows, b_ub = [], []
    a_eq_rows, b_eq = [], []
    for r in range(a.shape[0]):
        row = a[r]
        if lo[r] == hi[r] and np.isfinite(lo[r]):
            a_eq_rows.append(row)
            b_eq.append(lo[r])
            continue
        if np.isfinite(hi[r]):
            a_ub_rows.append(row)
            b_ub.append(hi[r])
        if np.isfinite(lo[r]):
            a_ub_rows.append(-row)
            b_ub.append(-lo[r])

    res = linprog(
        c,
        A_ub=np.array(a_ub_rows) if a_ub_rows else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq_rows) if a_eq_rows else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(lbs, ubs)),
        method="highs",
    )
    if res.status == 2:
        return SolveStatus.INFEASIBLE, None, math.inf
    if res.status == 3:
        return SolveStatus.UNBOUNDED, None, -math.inf
    if res.status != 0:
        return SolveStatus.ERROR, None, math.inf
    return SolveStatus.OPTIMAL, res.x, res.fun


def _most_fractional(x: np.ndarray, int_idx: np.ndarray) -> int | None:
    """Index of the integer variable farthest from integrality, or None."""
    best, best_gap = None, _INT_TOL
    for i in int_idx:
        gap = abs(x[i] - round(x[i]))
        frac_gap = min(x[i] - math.floor(x[i]), math.ceil(x[i]) - x[i])
        if gap > _INT_TOL and frac_gap > best_gap:
            best, best_gap = i, frac_gap
    return best


def _try_rounding(x, int_idx, model: Model, lbs, ubs):
    """Cheap rounding heuristic: round integers, check full feasibility."""
    candidate = x.copy()
    for i in int_idx:
        candidate[i] = round(candidate[i])
        candidate[i] = min(max(candidate[i], lbs[i]), ubs[i])
    values = {var: float(candidate[var.index]) for var in model.variables}
    if model.is_feasible(values, tol=1e-6):
        return values
    return None


def solve_branch_and_bound(
    model: Model,
    time_limit: float | None = None,
    max_nodes: int = 200_000,
    warm_start: dict | None = None,
    fixed: dict | None = None,
) -> Solution:
    """Traced wrapper over :func:`_solve_branch_and_bound` — the span
    records the search's size and outcome (nodes explored, incumbent
    source) for the observability layer."""
    with trace.span(
        "ilp.bb",
        variables=len(model.variables),
        time_limit=time_limit,
        warm_start=warm_start is not None,
    ) as span:
        solution = _solve_branch_and_bound(
            model, time_limit=time_limit, max_nodes=max_nodes,
            warm_start=warm_start, fixed=fixed,
        )
        span.set_attrs(
            status=solution.status.value,
            nodes_explored=solution.nodes_explored,
            incumbent_source=solution.incumbent_source,
        )
        return solution


def _solve_branch_and_bound(
    model: Model,
    time_limit: float | None = None,
    max_nodes: int = 200_000,
    warm_start: dict | None = None,
    fixed: dict | None = None,
) -> Solution:
    """Solve ``model`` exactly via LP-based branch and bound.

    Raises :class:`SolverError` only on unusable models; resource
    exhaustion is reported through :class:`SolveStatus.TIMEOUT` with the
    best incumbent found so far.

    ``warm_start`` (Var → value) seeds the incumbent before the search
    begins, so nodes whose LP bound cannot beat the seeded objective are
    pruned instead of explored — the previous layout is a ready-made
    lower bound on a recompile. Infeasible seeds are silently ignored
    (the search simply starts cold), so callers may pass best-effort
    re-encodings of stale solutions. ``fixed`` pins variables to values.
    """
    c, a, lo, hi, (lbs0, ubs0), integrality = model.to_matrix_form(fixed)
    int_idx = np.nonzero(integrality)[0]

    for var in model.variables:
        if var.vartype is not VarType.CONTINUOUS and not (
            np.isfinite(var.lb) and np.isfinite(var.ub)
        ):
            raise SolverError(
                f"branch and bound needs finite bounds on integer var {var.name!r}"
            )

    started = time.perf_counter()
    seq = itertools.count()
    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf  # minimization objective (c already negated for max)
    incumbent_source = ""
    nodes_explored = 0

    if warm_start is not None and model.is_feasible(warm_start, tol=1e-6):
        arr = np.array([float(warm_start.get(v, 0.0)) for v in model.variables])
        arr[int_idx] = np.round(arr[int_idx])
        incumbent_x = arr
        incumbent_obj = float(c @ arr)
        incumbent_source = "warm-start"

    status0, x0, obj0 = _solve_lp(c, a, lo, hi, lbs0, ubs0)
    if status0 is SolveStatus.INFEASIBLE:
        return Solution(SolveStatus.INFEASIBLE, backend="bb")
    if status0 is SolveStatus.UNBOUNDED:
        return Solution(SolveStatus.UNBOUNDED, backend="bb")
    if status0 is SolveStatus.ERROR:
        return Solution(SolveStatus.ERROR, backend="bb")

    heap: list[_Node] = [_Node(obj0, next(seq), lbs0.copy(), ubs0.copy())]
    timed_out = False

    while heap:
        if time_limit is not None and time.perf_counter() - started > time_limit:
            timed_out = True
            break
        if nodes_explored >= max_nodes:
            timed_out = True
            break
        node = heapq.heappop(heap)
        if node.priority >= incumbent_obj - 1e-9:
            continue  # bound: cannot beat incumbent
        status, x, obj = _solve_lp(c, a, lo, hi, node.lbs, node.ubs)
        nodes_explored += 1
        if status is not SolveStatus.OPTIMAL or obj >= incumbent_obj - 1e-9:
            continue

        branch_var = _most_fractional(x, int_idx)
        if branch_var is None:
            # Integral solution: round residual noise and accept.
            snapped = x.copy()
            snapped[int_idx] = np.round(snapped[int_idx])
            incumbent_x, incumbent_obj = snapped, obj
            incumbent_source = "search"
            continue

        rounded = _try_rounding(x, int_idx, model, node.lbs, node.ubs)
        if rounded is not None:
            arr = np.array([rounded[v] for v in model.variables])
            robj = float(c @ arr)
            if robj < incumbent_obj:
                incumbent_x, incumbent_obj = arr, robj
                incumbent_source = "rounding"

        pivot = x[branch_var]
        down_ub = node.ubs.copy()
        down_ub[branch_var] = math.floor(pivot)
        up_lb = node.lbs.copy()
        up_lb[branch_var] = math.ceil(pivot)
        if down_ub[branch_var] >= node.lbs[branch_var]:
            heapq.heappush(heap, _Node(obj, next(seq), node.lbs.copy(), down_ub))
        if up_lb[branch_var] <= node.ubs[branch_var]:
            heapq.heappush(heap, _Node(obj, next(seq), up_lb, node.ubs.copy()))

    elapsed = time.perf_counter() - started
    if incumbent_x is None:
        status = SolveStatus.TIMEOUT if timed_out else SolveStatus.INFEASIBLE
        return Solution(status, solve_seconds=elapsed, backend="bb",
                        nodes_explored=nodes_explored)

    values = {}
    for var in model.variables:
        val = float(incumbent_x[var.index])
        if var.vartype is not VarType.CONTINUOUS:
            val = float(round(val))
        values[var] = val
    objective = model.objective.expr.value(values)
    return Solution(
        status=SolveStatus.TIMEOUT if timed_out else SolveStatus.OPTIMAL,
        objective=objective,
        values=values,
        solve_seconds=elapsed,
        backend="bb",
        nodes_explored=nodes_explored,
        incumbent_source=incumbent_source,
        # An exhausted search proves the incumbent: bound = objective.
        mip_dual_bound=None if timed_out else objective,
        mip_gap=None if timed_out else 0.0,
    )
