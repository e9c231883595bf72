"""MILP solving: one exact solver, HiGHS.

``solve(model)`` runs HiGHS through the binding scipy bundles
(:func:`~repro.ilp.solver_scipy.solve_scipy`) and records the
``ilp.solve`` span and the per-solve metrics. The from-scratch branch
and bound (:mod:`repro.ilp.solver_bb`) is not reachable from here: it
is the independent reference the tests check HiGHS against, called
directly or put in the place of :func:`solve_scipy` in this module.
"""

from __future__ import annotations

from ..obs import metrics as obs_metrics
from ..obs import trace
from .model import Model
from .solution import Solution
from .solver_scipy import solve_scipy

__all__ = ["solve"]


def solve(
    model: Model,
    time_limit: float | None = None,
    warm_start: "dict | None" = None,
    fixed: "dict | None" = None,
    rel_gap: float | None = None,
) -> Solution:
    """Solve a model with HiGHS.

    ``warm_start`` is an optional feasible assignment (Var → value)
    HiGHS takes as its first incumbent (``setSolution``); an infeasible
    one is dropped. ``fixed`` (Var → value) pins variables, leaving the
    restricted problem over the rest. ``rel_gap`` is the relative
    optimality gap to stop at (HiGHS's default is 1e-4).
    """
    with trace.span(
        "ilp.solve",
        variables=model.num_variables,
        constraints=model.num_constraints,
        time_limit=time_limit,
        warm_start=warm_start is not None,
    ) as span:
        solution = solve_scipy(
            model, time_limit=time_limit, warm_start=warm_start,
            fixed=fixed, rel_gap=rel_gap,
        )
        span.set_attrs(
            backend=solution.backend,
            status=solution.status.value,
            nodes_explored=solution.nodes_explored,
            solve_seconds=solution.solve_seconds,
            mip_gap=solution.mip_gap,
        )
    _record_solve_metrics(solution)
    return solution


def _record_solve_metrics(solution: Solution) -> None:
    """Per-solve counters/histograms on the global registry."""
    backend = solution.backend or "unknown"
    obs_metrics.counter(
        "p4all_ilp_solves_total",
        help="ILP solves, by backend and terminal status.",
        labels=("backend", "status"),
    ).inc(backend=backend, status=solution.status.value)
    obs_metrics.histogram(
        "p4all_ilp_solve_seconds",
        help="Wall time of one ILP solve.",
        labels=("backend",),
    ).observe(solution.solve_seconds, backend=backend)
    if solution.nodes_explored:
        obs_metrics.counter(
            "p4all_ilp_nodes_explored_total",
            help="Branch-and-bound / MIP nodes explored across solves.",
            labels=("backend",),
        ).inc(solution.nodes_explored, backend=backend)
