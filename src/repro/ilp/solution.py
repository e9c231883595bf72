"""Solver-independent solution objects."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from .model import Model, Var

__all__ = ["SolveStatus", "Solution", "SolverError"]


class SolverError(Exception):
    """Raised when a backend cannot process the model at all."""


class SolveStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    #: A feasible (heuristic or incumbent) solution without an optimality
    #: proof — what the greedy fallback path and accepted timeout
    #: incumbents carry.
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIMEOUT = "timeout"
    ERROR = "error"

    @property
    def ok(self) -> bool:
        return self is SolveStatus.OPTIMAL

    @property
    def usable(self) -> bool:
        """True when the status can legitimately carry variable values."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE,
                        SolveStatus.TIMEOUT)


@dataclass
class Solution:
    """Result of solving a :class:`~repro.ilp.model.Model`.

    ``values`` maps variables to (already-rounded, for integer variables)
    solution values; ``objective`` is the objective value in the model's
    own sense (i.e., the maximized value for maximization models).
    """

    status: SolveStatus
    objective: float = 0.0
    values: Mapping[Var, float] = field(default_factory=dict)
    solve_seconds: float = 0.0
    backend: str = ""
    nodes_explored: int = 0
    #: Where the final incumbent came from: ``"warm-start"`` (a caller-
    #: provided seed the search never improved on), ``"rounding"`` (the
    #: rounding heuristic), ``"search"`` (an integral LP relaxation), or
    #: ``""`` for backends that don't track provenance.
    incumbent_source: str = ""
    #: Best proven bound on the objective (model sense) and the relative
    #: gap between it and ``objective`` when the solver stopped — HiGHS
    #: calls a solution optimal at a gap of 1e-4, so a slow or within-gap
    #: solve can be told from these. ``None`` where the backend has none.
    mip_dual_bound: float | None = None
    mip_gap: float | None = None

    @property
    def has_incumbent(self) -> bool:
        """True when the solver produced usable variable values.

        A :attr:`SolveStatus.TIMEOUT` solution *with* an incumbent is a
        feasible (if possibly sub-optimal) layout; one *without* carries
        no assignment at all and must not be decoded into a program.
        Callers branch on this instead of string-matching error text.
        """
        return bool(self.values) and self.status.usable

    def __getitem__(self, var: Var) -> float:
        return self.values[var]

    def value(self, var: Var, default: float = 0.0) -> float:
        return self.values.get(var, default)

    def int_value(self, var: Var, default: int = 0) -> int:
        return int(round(self.values.get(var, default)))

    def check(self, model: Model, tol: float = 1e-5) -> bool:
        """Verify this solution is feasible for ``model``."""
        return self.status.ok and model.is_feasible(self.values, tol)

    def __repr__(self) -> str:
        return (
            f"Solution({self.status.value}, obj={self.objective:.6g}, "
            f"backend={self.backend!r}, {self.solve_seconds * 1e3:.1f} ms)"
        )
