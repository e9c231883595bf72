"""Generic mixed-integer linear programming substrate.

The P4All compiler core (:mod:`repro.core`) expresses the Figure-10 layout
problem through this package. It provides:

* :class:`Model`, :class:`Var`, :class:`LinExpr`, :class:`Constraint` —
  a small modeling layer (:mod:`repro.ilp.model`);
* :func:`solve` — HiGHS, the one solver a compile calls
  (:mod:`repro.ilp.solver`);
* :func:`~repro.ilp.solver_bb.solve_branch_and_bound` — a from-scratch
  branch and bound, kept as the tests' independent reference.
"""

from .model import Constraint, LinExpr, Model, ModelError, Sense, Var, VarType
from .solution import Solution, SolveStatus, SolverError
from .solver import solve

__all__ = [
    "Constraint",
    "LinExpr",
    "Model",
    "ModelError",
    "Sense",
    "Var",
    "VarType",
    "Solution",
    "SolveStatus",
    "SolverError",
    "solve",
]
