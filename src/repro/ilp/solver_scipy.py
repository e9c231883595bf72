"""MILP backend on top of :func:`scipy.optimize.milp` (HiGHS).

This is the primary solver: HiGHS is an exact branch-and-cut MILP solver,
standing in for the Gurobi Optimizer the paper's prototype invoked.
"""

from __future__ import annotations

import time

import numpy as np

from ..obs import trace
from .model import Model, VarType
from .solution import Solution, SolveStatus, SolverError

__all__ = ["solve_scipy"]

_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.TIMEOUT,  # iteration/time limit
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}


def solve_scipy(
    model: Model,
    time_limit: float | None = None,
    warm_start: dict | None = None,
    fixed: dict | None = None,
    rel_gap: float | None = None,
) -> Solution:
    """Solve ``model`` with scipy's HiGHS MILP solver.

    Integer variable values in the returned solution are rounded to the
    nearest integer (HiGHS returns them within tolerance of integrality).
    ``warm_start`` is accepted for backend interchangeability but unused:
    ``scipy.optimize.milp`` exposes no incumbent-seeding API. ``fixed``
    pins variables to values; ``rel_gap`` overrides HiGHS's default
    ``mip_rel_gap`` of 1e-4 — the gap at which it calls a solution
    optimal, reported back as :attr:`Solution.mip_gap`.
    """
    del warm_start
    try:
        from scipy.optimize import LinearConstraint, milp
        from scipy.optimize import Bounds
    except ImportError as exc:  # pragma: no cover - scipy is a hard dependency
        raise SolverError("scipy.optimize.milp unavailable") from exc

    c, a, lo, hi, (lbs, ubs), integrality = model.to_matrix_form(fixed)
    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if rel_gap is not None:
        options["mip_rel_gap"] = float(rel_gap)

    constraints = [LinearConstraint(a, lo, hi)] if len(model.constraints) else []
    started = time.perf_counter()
    with trace.span(
        "ilp.scipy",
        variables=len(model.variables),
        time_limit=time_limit,
    ) as span:
        result = milp(
            c=c,
            constraints=constraints,
            bounds=Bounds(lbs, ubs),
            integrality=integrality,
            options=options,
        )
        status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
        nodes = int(getattr(result, "mip_node_count", 0) or 0)
        # HiGHS bounds the minimised ``c @ x``; report the model's sense.
        dual_bound = getattr(result, "mip_dual_bound", None)
        if dual_bound is not None:
            sign = -1.0 if model.objective.maximize else 1.0
            dual_bound = sign * float(dual_bound) + model.objective.expr.constant
        gap = getattr(result, "mip_gap", None)
        gap = None if gap is None else float(gap)
        span.set_attrs(
            status=status.value,
            nodes_explored=nodes,
            mip_dual_bound=dual_bound,
            mip_gap=gap,
        )
    elapsed = time.perf_counter() - started
    if result.x is None:
        return Solution(status=status, solve_seconds=elapsed, backend="scipy-highs")

    values = {}
    for var in model.variables:
        val = float(result.x[var.index])
        if var.vartype is not VarType.CONTINUOUS:
            val = float(round(val))
        values[var] = val
    objective = model.objective.expr.value(values)
    return Solution(
        status=status,
        objective=objective,
        values=values,
        solve_seconds=elapsed,
        backend="scipy-highs",
        nodes_explored=nodes,
        mip_dual_bound=dual_bound,
        mip_gap=gap,
    )
