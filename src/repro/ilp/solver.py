"""Backend dispatch for MILP solving.

``solve(model)`` picks the best available exact backend: HiGHS, through
the binding scipy bundles, when it loads, otherwise the built-in branch
and bound.
Callers can force a backend by name, which the cross-check tests and the
solver-ablation benchmark use.
"""

from __future__ import annotations

from ..obs import metrics as obs_metrics
from ..obs import trace
from .model import Model
from .solution import Solution, SolverError

__all__ = ["solve", "available_backends"]

_BACKENDS = ("scipy", "bb")


def available_backends() -> tuple[str, ...]:
    """Names of usable backends, preferred first."""
    from .solver_scipy import highs_core

    try:
        highs_core()
    except SolverError:  # pragma: no cover - scipy is a hard dependency
        return ("bb",)
    return _BACKENDS


def solve(
    model: Model,
    backend: str = "auto",
    time_limit: float | None = None,
    warm_start: "dict | None" = None,
    fixed: "dict | None" = None,
    rel_gap: float | None = None,
) -> Solution:
    """Solve a model with the chosen backend.

    ``backend`` is ``"auto"`` (prefer HiGHS), ``"scipy"``, or ``"bb"``.
    ``warm_start`` is an optional feasible assignment (Var → value) used
    to seed the incumbent: HiGHS takes it through ``setSolution``, the
    branch and bound as its first incumbent; both drop an infeasible
    one. ``fixed`` (Var → value)
    pins variables, leaving the restricted problem over the rest.
    ``rel_gap`` is the relative optimality gap to stop at: HiGHS defaults
    to 1e-4; the branch and bound always searches to zero gap and
    ignores it.
    """
    if backend == "auto":
        backend = available_backends()[0]
    if backend in ("scipy", "bb"):
        with trace.span(
            "ilp.solve",
            backend=backend,
            variables=model.num_variables,
            constraints=model.num_constraints,
            time_limit=time_limit,
            warm_start=warm_start is not None,
        ) as span:
            if backend == "scipy":
                from .solver_scipy import solve_scipy

                solution = solve_scipy(
                    model, time_limit=time_limit, warm_start=warm_start,
                    fixed=fixed, rel_gap=rel_gap,
                )
            else:
                from .solver_bb import solve_branch_and_bound

                solution = solve_branch_and_bound(
                    model, time_limit=time_limit, warm_start=warm_start,
                    fixed=fixed,
                )
            span.set_attrs(
                status=solution.status.value,
                nodes_explored=solution.nodes_explored,
                solve_seconds=solution.solve_seconds,
                mip_gap=solution.mip_gap,
            )
        _record_solve_metrics(solution)
        return solution
    raise SolverError(
        f"unknown ILP backend {backend!r}; options: auto, scipy, bb "
        "(the compile driver additionally accepts 'greedy', which bypasses "
        "the ILP entirely)"
    )


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
