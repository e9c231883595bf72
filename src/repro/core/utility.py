"""Utility-function and assume-clause linearization (paper §3.2.4).

Utility functions are arithmetic expressions over symbolic values. The
ILP is linear, so each term must map to a linear expression over layout
variables:

* a bare symbolic → its ILP expression (iteration count or size var);
* ``const * term`` → scaled term;
* ``count_sym * size_sym`` for a register family (e.g. ``rows * cols``)
  → the family's **total allocated cells** ``Σ m[r,i,s]``, which equals
  the product when the equal-size constraint (#10) holds — this is what
  makes the paper's ``0.4*(rows*cols) + 0.6*(kv_items)`` form linear;
* ``min(e1, ..., en)`` of such terms → an auxiliary variable ``t`` with
  ``t <= e_k`` (exact for maximization, since utilities enter the
  objective positively).

``assume`` clauses reuse the same term linearizer on both sides of each
comparison, so memory-floor constraints like
``assume kv_rows * kv_cols * 128 >= 8388608`` work directly.
"""

from __future__ import annotations

from ..ilp import Constraint, LinExpr, Sense, VarType
from ..lang import ast
from ..lang.errors import SemanticError
from ..lang.symbols import ProgramInfo, eval_static
from .errors import UtilityError
from .layout import LayoutModel

__all__ = ["linearize_utility", "linearize_condition", "linearize_term",
           "eval_utility_term", "utility_at"]

_BIG = 1e12


def _try_static(expr: ast.Expr, info: ProgramInfo):
    """Evaluate to a number using only consts; None when symbolics appear."""
    names = {
        n.ident
        for n in ast.walk(expr)
        if isinstance(n, ast.Name)
    }
    if names & set(info.symbolics):
        return None
    try:
        return eval_static(expr, info.consts)
    except SemanticError:
        return None


def linearize_term(expr: ast.Expr, lm: LayoutModel, info: ProgramInfo) -> LinExpr:
    """Translate a utility/assume term into a linear layout expression."""
    if isinstance(expr, (ast.IntLit, ast.FloatLit)):
        return LinExpr(constant=expr.value)
    if isinstance(expr, ast.Name):
        if expr.ident in info.symbolics:
            return lm.symbolic_expr(expr.ident)
        if expr.ident in info.consts:
            return LinExpr(constant=info.consts[expr.ident])
        raise UtilityError(f"unknown name {expr.ident!r} in utility expression")
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        return -linearize_term(expr.operand, lm, info)
    if isinstance(expr, ast.BinaryOp):
        if expr.op == "+":
            return linearize_term(expr.left, lm, info) + linearize_term(
                expr.right, lm, info
            )
        if expr.op == "-":
            return linearize_term(expr.left, lm, info) - linearize_term(
                expr.right, lm, info
            )
        if expr.op == "*":
            return _linearize_product(expr, lm, info)
        if expr.op == "/":
            divisor = _try_static(expr.right, info)
            if divisor:
                return linearize_term(expr.left, lm, info) * (1.0 / divisor)
            raise UtilityError("division in utility requires a constant divisor")
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
            and expr.func.ident == "min":
        arms = [linearize_term(arg, lm, info) for arg in expr.args]
        aux = lm.model.add_var("util_min", lb=-_BIG, ub=_BIG)
        for k, arm in enumerate(arms):
            lm.model.add_constr(
                LinExpr.from_term(aux) <= arm, name=f"util_min[{k}]"
            )
        lm.min_aux.append((aux, arms))
        return LinExpr.from_term(aux)
    raise UtilityError(
        f"cannot linearize utility term of kind {type(expr).__name__}"
    )


def _linearize_product(expr: ast.BinaryOp, lm: LayoutModel,
                       info: ProgramInfo) -> LinExpr:
    left_const = _try_static(expr.left, info)
    right_const = _try_static(expr.right, info)
    if left_const is not None and right_const is not None:
        return LinExpr(constant=left_const * right_const)
    if left_const is not None:
        return left_const * linearize_term(expr.right, lm, info)
    if right_const is not None:
        return linearize_term(expr.left, lm, info) * right_const
    # Symbolic × symbolic: recognize count_sym * size_sym of one register
    # family and rewrite as the family's total allocated cells.
    syms = _bare_symbolic_pair(expr, info)
    if syms is not None:
        family = lm.family_for_product(*syms)
        if family is not None:
            return lm.total_cells_expr(family)
        raise UtilityError(
            f"product {syms[0]!r} * {syms[1]!r} does not match any register "
            "family's (count, size) symbolics, so it cannot be linearized"
        )
    raise UtilityError(
        "only const*term or count_sym*size_sym products are supported in "
        "utility expressions"
    )


def _bare_symbolic_pair(expr: ast.BinaryOp, info: ProgramInfo):
    if isinstance(expr.left, ast.Name) and isinstance(expr.right, ast.Name) \
            and expr.left.ident in info.symbolics \
            and expr.right.ident in info.symbolics:
        return expr.left.ident, expr.right.ident
    return None


def linearize_utility(expr: ast.Expr, lm: LayoutModel,
                      info: ProgramInfo) -> LinExpr:
    """Objective expression for an ``optimize`` declaration."""
    return linearize_term(expr, lm, info)


def eval_utility_term(expr: ast.Expr, env: dict) -> float:
    """Numerically evaluate a utility term at concrete symbol values.

    Unlike :func:`~repro.lang.symbols.eval_static`, this supports the
    ``min``/``max`` calls allowed in utilities, so the greedy first fit
    (and per-module attribution) can score any objective the ILP can.
    ``env`` maps symbolic/const names to values.
    """
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
            and expr.func.ident in ("min", "max"):
        fn = min if expr.func.ident == "min" else max
        return fn(eval_utility_term(arg, env) for arg in expr.args)
    if isinstance(expr, ast.BinaryOp) and expr.op in _EVAL_OPS:
        return _EVAL_OPS[expr.op](
            eval_utility_term(expr.left, env),
            eval_utility_term(expr.right, env),
        )
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        return -eval_utility_term(expr.operand, env)
    try:
        return eval_static(expr, env)
    except SemanticError as exc:
        raise UtilityError(f"cannot evaluate utility term: {exc}") from exc


_EVAL_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def utility_at(
    symbol_values: dict[str, int],
    consts: dict[str, int],
    utility: ast.Expr | None = None,
    utility_terms=None,
) -> tuple[float, dict[str, float]]:
    """``(utility, per-module breakdown)`` of a layout at its symbol values.

    What every back end reports as :attr:`LayoutSolution.objective`: the
    ``optimize`` expression — or, linked, the weighted sum of the
    per-module ``utility_terms``, which then takes precedence — at the
    decoded integers. A solver's own objective is the linearised form,
    summed in its own term order and read off floats within tolerance;
    this is not, so two back ends (or two encodings) that choose the
    same symbol values report the same number, bit for bit.
    """
    env = {**consts, **symbol_values}
    breakdown: dict[str, float] = {}
    for module, weight, term in utility_terms or ():
        breakdown[module] = breakdown.get(module, 0.0) \
            + float(weight) * eval_utility_term(term, env)
    if breakdown:
        return sum(breakdown.values()), breakdown
    if utility is not None:
        return float(eval_utility_term(utility, env)), breakdown
    return 0.0, breakdown


def linearize_condition(cond: ast.Expr, lm: LayoutModel,
                        info: ProgramInfo) -> list[Constraint]:
    """Translate an assume condition into linear constraints.

    Supports conjunctions of comparisons whose sides are linearizable
    terms. Strict integer comparisons are tightened by one.
    """
    if isinstance(cond, ast.BinaryOp) and cond.op == "&&":
        return linearize_condition(cond.left, lm, info) + linearize_condition(
            cond.right, lm, info
        )
    if isinstance(cond, ast.BinaryOp) and cond.op in ("<", "<=", ">", ">=", "=="):
        left = linearize_term(cond.left, lm, info)
        right = linearize_term(cond.right, lm, info)
        diff = left - right
        if cond.op == "<=":
            return [Constraint(diff, Sense.LE)]
        if cond.op == "<":
            return [Constraint(diff + 1, Sense.LE)]
        if cond.op == ">=":
            return [Constraint(diff, Sense.GE)]
        if cond.op == ">":
            return [Constraint(diff - 1, Sense.GE)]
        return [Constraint(diff, Sense.EQ)]
    if isinstance(cond, ast.BoolLit):
        if cond.value:
            return []
        raise UtilityError("assume false makes the program trivially infeasible")
    raise UtilityError(
        "assume conditions must be conjunctions of linear comparisons; got "
        f"{type(cond).__name__}"
    )
