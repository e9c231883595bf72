"""Extracting numeric bounds on symbolic values from ``assume`` clauses.

The ILP receives every assume as a linear constraint
(:mod:`repro.core.layout`), but the loop-unrolling phase benefits from
plain numeric caps: ``assume rows >= 1 && rows < 4`` caps the unroll
bound for ``rows`` at 3 before any graph is built (§3.2.1's
diminishing-returns example does exactly this).

Only simple shapes contribute here — conjunctions of comparisons between
one symbolic and a constant. Everything else is left to the ILP.

:func:`false_assumes` is the other direction: given chosen values, which
clauses do not hold. The greedy back end and ``validate_layout`` use it
to agree with the ILP on what a feasible layout is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..lang import ast
from ..lang.pretty import pretty_expr
from ..lang.symbols import ProgramInfo, eval_static
from ..lang.errors import SemanticError

__all__ = ["NumericBounds", "extract_numeric_bounds", "false_assumes"]


@dataclass
class NumericBounds:
    """Closed interval of allowed values for one symbolic."""

    lower: int = 0
    upper: int | None = None  # None = unbounded above

    def tighten_lower(self, value: int) -> None:
        self.lower = max(self.lower, value)

    def tighten_upper(self, value: int) -> None:
        self.upper = value if self.upper is None else min(self.upper, value)


def _try_const(expr: ast.Expr, consts: dict[str, int]) -> int | None:
    try:
        value = eval_static(expr, consts)
    except SemanticError:
        return None
    return int(value) if isinstance(value, (int, float)) and value == int(value) else None


def _apply_comparison(
    bounds: dict[str, NumericBounds],
    sym: str,
    op: str,
    const: int,
    sym_on_left: bool,
) -> None:
    """Record ``sym OP const`` (or ``const OP sym`` when not sym_on_left)."""
    if not sym_on_left:
        flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "=="}
        op = flip[op]
    entry = bounds.setdefault(sym, NumericBounds())
    if op == "<":
        entry.tighten_upper(const - 1)
    elif op == "<=":
        entry.tighten_upper(const)
    elif op == ">":
        entry.tighten_lower(const + 1)
    elif op == ">=":
        entry.tighten_lower(const)
    elif op == "==":
        entry.tighten_lower(const)
        entry.tighten_upper(const)


def _walk_condition(
    cond: ast.Expr,
    symbolics: set[str],
    consts: dict[str, int],
    bounds: dict[str, NumericBounds],
) -> None:
    if isinstance(cond, ast.BinaryOp):
        if cond.op == "&&":
            _walk_condition(cond.left, symbolics, consts, bounds)
            _walk_condition(cond.right, symbolics, consts, bounds)
            return
        if cond.op in ("<", "<=", ">", ">=", "=="):
            left, right = cond.left, cond.right
            if isinstance(left, ast.Name) and left.ident in symbolics:
                const = _try_const(right, consts)
                if const is not None:
                    _apply_comparison(bounds, left.ident, cond.op, const, True)
                return
            if isinstance(right, ast.Name) and right.ident in symbolics:
                const = _try_const(left, consts)
                if const is not None:
                    _apply_comparison(bounds, right.ident, cond.op, const, False)
                return
    # Disjunctions, affine combinations, products: handled by the ILP only.


def extract_numeric_bounds(info: ProgramInfo) -> dict[str, NumericBounds]:
    """Per-symbolic numeric intervals implied by the program's assumes."""
    bounds: dict[str, NumericBounds] = {}
    symbolics = set(info.symbolics)
    for assume in info.program.assumes():
        _walk_condition(assume.condition, symbolics, info.consts, bounds)
    for entry in bounds.values():
        if entry.upper is not None and entry.upper < entry.lower:
            raise SemanticError(
                "assume clauses are contradictory "
                f"(lower {entry.lower} > upper {entry.upper})"
            )
    return bounds


def false_assumes(info: ProgramInfo, symbol_values: dict[str, int]) -> list[str]:
    """The ``assume`` clauses, as source text, that do not hold at
    ``symbol_values``."""
    env = {**info.consts, **symbol_values}
    return [
        pretty_expr(assume.condition)
        for assume in info.program.assumes()
        if not eval_static(assume.condition, env)
    ]
