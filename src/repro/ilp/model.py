"""Lightweight mixed-integer linear programming (MILP) modeling layer.

The paper's prototype generates its layout ILP for the Gurobi Optimizer.
Gurobi is proprietary and unavailable offline, so this package provides a
small, self-contained modeling layer (variables, linear expressions,
constraints, objective) that can be handed to interchangeable exact
solvers:

* :mod:`repro.ilp.solver_scipy` — HiGHS, through the binding scipy bundles.
* :mod:`repro.ilp.solver_bb` — a from-scratch branch-and-bound solver
  built on LP relaxations, used as a fallback and as a cross-check.

The modeling style intentionally mirrors common MILP APIs::

    m = Model("layout")
    x = m.add_var("x", vartype=VarType.BINARY)
    y = m.add_var("y", lb=0, ub=10, vartype=VarType.INTEGER)
    m.add_constr(x + 2 * y <= 7, name="cap")
    m.maximize(3 * x + y)
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

__all__ = [
    "VarType",
    "Var",
    "LinExpr",
    "Constraint",
    "Sense",
    "Model",
    "ModelError",
]


class ModelError(Exception):
    """Raised for malformed models (bad bounds, non-linear use, etc.)."""


class VarType(enum.Enum):
    """Domain of a decision variable."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


class Sense(enum.Enum):
    """Direction of a constraint relation."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(frozen=True)
class Var:
    """A decision variable.

    Variables are created through :meth:`Model.add_var` so that every
    variable is registered with exactly one model. They are hashable and
    compared by identity of their ``(model_id, index)`` pair, which keeps
    expression arithmetic cheap; the hash is computed once, since a
    variable is a dict key on every path through a model.
    """

    name: str
    index: int
    lb: float
    ub: float
    vartype: VarType
    model_id: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.model_id, self.index)))

    def __hash__(self) -> int:  # index is unique within a model
        return self._hash

    def __eq__(self, other: object):  # type: ignore[override]
        if isinstance(other, Var):
            return self.model_id == other.model_id and self.index == other.index
        # ``var == expr`` builds an equality constraint, like ``expr == expr``.
        if isinstance(other, (LinExpr, int, float)):
            return LinExpr.from_term(self) == other
        return NotImplemented

    # -- arithmetic lifts to LinExpr -------------------------------------
    def __add__(self, other):
        return LinExpr.from_term(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        return LinExpr.from_term(self) - other

    def __rsub__(self, other):
        return (-LinExpr.from_term(self)) + other

    def __mul__(self, coef):
        return LinExpr.from_term(self) * coef

    __rmul__ = __mul__

    def __neg__(self):
        return LinExpr.from_term(self) * -1.0

    def __le__(self, other):
        return LinExpr.from_term(self) <= other

    def __ge__(self, other):
        return LinExpr.from_term(self) >= other

    def __repr__(self) -> str:
        return f"Var({self.name})"


class LinExpr:
    """An affine expression ``sum(coef_i * var_i) + constant``.

    Supports ``+``, ``-``, scalar ``*``, and comparisons (which produce
    :class:`Constraint` objects). Non-linear products raise
    :class:`ModelError` at construction time, which surfaces modeling bugs
    early rather than at solve time.
    """

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Mapping[Var, float] | None = None, constant: float = 0.0):
        self.terms: dict[Var, float] = dict(terms) if terms else {}
        self.constant = float(constant)

    @classmethod
    def from_term(cls, var: Var, coef: float = 1.0) -> "LinExpr":
        return cls({var: float(coef)})

    @classmethod
    def total(cls, items: Iterable["LinExpr | Var | float"]) -> "LinExpr":
        """Sum an iterable of expressions/vars/constants efficiently."""
        out = cls()
        for item in items:
            out += item
        return out

    def copy(self) -> "LinExpr":
        return LinExpr(self.terms, self.constant)

    # -- arithmetic -------------------------------------------------------
    def _iadd(self, other, sign: float) -> "LinExpr":
        if isinstance(other, (int, float)):
            self.constant += sign * other
        elif isinstance(other, Var):
            self.terms[other] = self.terms.get(other, 0.0) + sign
        elif isinstance(other, LinExpr):
            for var, coef in other.terms.items():
                self.terms[var] = self.terms.get(var, 0.0) + sign * coef
            self.constant += sign * other.constant
        else:
            raise ModelError(f"cannot combine LinExpr with {type(other).__name__}")
        return self

    def __add__(self, other):
        return self.copy()._iadd(other, 1.0)

    __radd__ = __add__

    def __iadd__(self, other):
        return self._iadd(other, 1.0)

    def __sub__(self, other):
        return self.copy()._iadd(other, -1.0)

    def __isub__(self, other):
        return self._iadd(other, -1.0)

    def __rsub__(self, other):
        return (self * -1.0)._iadd(other, 1.0)

    def __mul__(self, coef):
        if not isinstance(coef, (int, float)):
            raise ModelError("LinExpr can only be scaled by a scalar (model is linear)")
        out = LinExpr(constant=self.constant * coef)
        out.terms = {v: c * coef for v, c in self.terms.items()}
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    # -- relations --------------------------------------------------------
    def __le__(self, other) -> "Constraint":
        return Constraint(self - other, Sense.LE)

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - other, Sense.GE)

    def __eq__(self, other) -> "Constraint":  # type: ignore[override]
        return Constraint(self - other, Sense.EQ)

    def __hash__(self):  # LinExpr is mutable; identity hash is intentional
        return id(self)

    # -- evaluation and display -------------------------------------------
    def value(self, assignment: Mapping[Var, float]) -> float:
        """Evaluate under a variable assignment (missing vars count as 0)."""
        return self.constant + sum(
            coef * assignment.get(var, 0.0) for var, coef in self.terms.items()
        )

    def variables(self) -> list[Var]:
        return list(self.terms)

    def __repr__(self) -> str:
        parts = [f"{coef:+g}*{var.name}" for var, coef in self.terms.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)


@dataclass
class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` with an optional name."""

    expr: LinExpr
    sense: Sense
    name: str = ""

    def satisfied(self, assignment: Mapping[Var, float], tol: float = 1e-6) -> bool:
        """Check the constraint under an assignment, within tolerance."""
        lhs = self.expr.value(assignment)
        if self.sense is Sense.LE:
            return lhs <= tol
        if self.sense is Sense.GE:
            return lhs >= -tol
        return abs(lhs) <= tol

    def __repr__(self) -> str:
        label = f"[{self.name}] " if self.name else ""
        return f"{label}{self.expr!r} {self.sense.value} 0"


@dataclass
class Objective:
    """Objective function; the model normalizes to maximization.

    ``terms`` optionally names linear sub-expressions of ``expr`` (the
    linker labels each module's weighted utility contribution) so a
    solved assignment can be broken down per contributor.
    """

    expr: LinExpr = field(default_factory=LinExpr)
    maximize: bool = True
    terms: dict[str, LinExpr] = field(default_factory=dict)

    def breakdown(self, assignment) -> dict[str, float]:
        """Value of each named term under a solution assignment."""
        return {name: expr.value(assignment)
                for name, expr in self.terms.items()}


class Model:
    """A mixed-integer linear program.

    Holds variables, constraints and an objective. Solving is delegated to
    :func:`repro.ilp.solver.solve`.
    """

    _next_model_id = 0

    def __init__(self, name: str = "model"):
        self.name = name
        self.model_id = Model._next_model_id
        Model._next_model_id += 1
        self.variables: list[Var] = []
        self.constraints: list[Constraint] = []
        self.objective = Objective()
        self._names: set[str] = set()
        #: ``[constraints, (rows, columns), arrays]`` of the last
        #: :meth:`to_sparse_form` — one list, shared with every shallow
        #: copy (:meth:`relaxation`, a placement model), since they share
        #: the rows
        self._sparse_rows: list = [None, None, None]
        #: ``(variables, count, arrays)`` of :meth:`_column_data`; a
        #: shallow copy starts from its original's and keeps it while
        #: the two share the variables (a placement model), a relaxation
        #: builds its own
        self._column_cache: tuple | None = None

    # -- construction -------------------------------------------------------
    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = math.inf,
        vartype: VarType = VarType.CONTINUOUS,
    ) -> Var:
        """Create and register a decision variable.

        Binary variables ignore ``lb``/``ub`` and use the 0/1 domain.
        Duplicate names get a numeric suffix so debug output stays readable.
        """
        if vartype is VarType.BINARY:
            lb, ub = 0.0, 1.0
        if lb > ub:
            raise ModelError(f"variable {name!r}: lb {lb} > ub {ub}")
        if name in self._names:
            name = f"{name}#{len(self.variables)}"
        self._names.add(name)
        var = Var(name, len(self.variables), float(lb), float(ub), vartype, self.model_id)
        self.variables.append(var)
        return var

    def add_constr(self, constr: Constraint, name: str = "") -> Constraint:
        """Register a constraint built from expression comparisons."""
        if not isinstance(constr, Constraint):
            raise ModelError(
                "add_constr expects a Constraint (use <=, >=, == on expressions); "
                f"got {type(constr).__name__}"
            )
        for var in constr.expr.terms:
            if var.model_id != self.model_id:
                raise ModelError(f"constraint uses variable {var.name!r} from another model")
        if name:
            constr.name = name
        self.constraints.append(constr)
        return constr

    def maximize(self, expr: LinExpr | Var,
                 terms: dict[str, LinExpr] | None = None) -> None:
        if isinstance(expr, Var):
            expr = LinExpr.from_term(expr)
        self.objective = Objective(expr, maximize=True, terms=dict(terms or {}))

    def minimize(self, expr: LinExpr | Var) -> None:
        if isinstance(expr, Var):
            expr = LinExpr.from_term(expr)
        self.objective = Objective(expr, maximize=False)

    # -- introspection --------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def relaxation(self) -> "Model":
        """The LP relaxation: the same rows and objective with every
        variable continuous. Its variables compare equal to this model's
        (same model id and index), so an assignment of one is an
        assignment of the other."""
        relaxed = copy.copy(self)
        relaxed.variables = [
            Var(var.name, var.index, var.lb, var.ub, VarType.CONTINUOUS,
                var.model_id)
            for var in self.variables
        ]
        return relaxed

    def is_feasible(self, assignment: Mapping[Var, float], tol: float = 1e-6) -> bool:
        """Check an assignment against bounds, integrality, and constraints
        (a variable missing from it counts as 0), on the arrays a solve
        passes HiGHS: every row is ``lo - tol <= A x <= hi + tol``."""
        import numpy as np

        x = np.array([assignment.get(var, 0.0) for var in self.variables],
                     dtype=float)
        lbs, ubs, _integrality, integer = self._column_data()
        if not (np.all(lbs - tol <= x) and np.all(x <= ubs + tol)):
            return False
        ints = x[integer]
        if not np.all(np.abs(ints - np.round(ints)) <= tol):
            return False
        (start, index, value), lo, hi = self._sparse_arrays()
        ax = np.bincount(index, weights=value * np.repeat(x, np.diff(start)),
                         minlength=len(lo))
        return bool(np.all(lo - tol <= ax) and np.all(ax <= hi + tol))

    def _column_data(self):
        """``(lbs, ubs, integrality, integer)``: the variables' bounds,
        their 0/1 integrality and the boolean mask of the integer ones,
        read-only, built once per list of variables."""
        import numpy as np

        cached = self._column_cache
        if cached is None or cached[0] is not self.variables \
                or cached[1] != len(self.variables):
            integer = np.array([v.vartype is not VarType.CONTINUOUS
                                for v in self.variables], dtype=bool)
            arrays = (np.array([v.lb for v in self.variables], dtype=float),
                      np.array([v.ub for v in self.variables], dtype=float),
                      integer.astype(np.int32), integer)
            for array in arrays:
                array.flags.writeable = False
            cached = self._column_cache = (self.variables, len(self.variables),
                                           arrays)
        return cached[2]

    def _columns(self, fixed: Mapping[Var, float] | None):
        """``(c, (lbs, ubs), integrality)``: what a solve varies per
        call — the objective, for a *maximization* written as minimize
        ``-c``, and the bounds, ``fixed`` variables pinned at their
        value."""
        import numpy as np

        c = np.zeros(len(self.variables))
        for var, coef in self.objective.expr.terms.items():
            c[var.index] = coef
        if self.objective.maximize:
            c = -c
        lbs, ubs, integrality, _integer = self._column_data()
        lbs, ubs = lbs.copy(), ubs.copy()
        for var, val in (fixed or {}).items():
            lbs[var.index] = ubs[var.index] = val
        return c, (lbs, ubs), integrality

    @staticmethod
    def _row_bounds(r: int, constr: Constraint, lo, hi) -> None:
        rhs = -constr.expr.constant
        if constr.sense is not Sense.GE:
            hi[r] = rhs
        if constr.sense is not Sense.LE:
            lo[r] = rhs

    def to_sparse_form(self, fixed: Mapping[Var, float] | None = None):
        """``(c, (start, index, value), lo, hi, bounds, integrality)``:
        :meth:`to_matrix_form` with the constraint matrix column-wise
        (CSC, rows ascending in each column, no zeros), the form HiGHS
        takes. The rows are built once per model — shallow copies share
        them — and the bounds and integrality once per list of
        variables; only ``c`` and the ``fixed`` bounds per call.
        """
        matrix, lo, hi = self._sparse_arrays()
        c, bounds, integrality = self._columns(fixed)
        return c, matrix, lo, hi, bounds, integrality

    def _sparse_arrays(self):
        """``((start, index, value), lo, hi)`` of the rows, cached."""
        import numpy as np

        shape = (len(self.constraints), len(self.variables))
        rows, built, arrays = self._sparse_rows
        if rows is not self.constraints or built != shape:
            col_of, row_of, values = [], [], []
            lo = np.full(shape[0], -np.inf)
            hi = np.full(shape[0], np.inf)
            for r, constr in enumerate(self.constraints):
                for var, coef in constr.expr.terms.items():
                    if coef:                    # a zero is no entry
                        col_of.append(var.index)
                        row_of.append(r)
                        values.append(coef)
                self._row_bounds(r, constr, lo, hi)
            col_of = np.array(col_of, dtype=np.int64)
            order = np.argsort(col_of, kind="stable")
            start = np.concatenate(
                ([0], np.cumsum(np.bincount(col_of, minlength=shape[1])))
            ).astype(np.int32)
            index = np.array(row_of, dtype=np.int32)[order]
            value = np.array(values, dtype=float)[order]
            arrays = ((start, index, value), lo, hi)
            self._sparse_rows[:] = [self.constraints, shape, arrays]
        return arrays

    def to_matrix_form(self, fixed: Mapping[Var, float] | None = None):
        """Export ``(c, A, lo, hi, bounds, integrality)`` numpy arrays.

        Returns the model as dense numpy structures suitable for
        ``scipy.optimize.milp``/``linprog``: objective vector ``c`` (for a
        *maximization* written as minimize ``-c``), a single constraint
        matrix ``A`` with row bounds ``lo <= A x <= hi``, per-variable
        bounds, and an integrality vector. Variables in ``fixed`` get
        both bounds set to the given value (the restricted problem a
        re-solve over the remaining columns needs). HiGHS takes
        :meth:`to_sparse_form`; this is the reference form.
        """
        import numpy as np

        n = len(self.variables)
        c, (lbs, ubs), integrality = self._columns(fixed)
        rows = len(self.constraints)
        a = np.zeros((rows, n))
        lo = np.full(rows, -np.inf)
        hi = np.full(rows, np.inf)
        for r, constr in enumerate(self.constraints):
            for var, coef in constr.expr.terms.items():
                a[r, var.index] = coef
            self._row_bounds(r, constr, lo, hi)
        return c, a, lo, hi, (lbs, ubs), integrality

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_variables}, "
            f"constrs={self.num_constraints})"
        )
