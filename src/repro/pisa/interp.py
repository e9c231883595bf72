"""Expression/statement interpreter for placed action bodies.

Executes the AST statements of a placed unit against the pipeline's
per-packet state. Semantics (matching PISA, §2):

* every unit in a stage *reads* the PHV as it was at stage entry (the
  snapshot), so same-stage units are order-independent;
* within one unit, statements execute sequentially (a unit's own writes
  are visible to its later statements — that is what makes ``incr``'s
  hash-then-use-index body a single atomic action);
* writes commit to the PHV at stage exit; conflicting same-stage writes
  with different values raise :class:`SimulationError`, because the
  dependency analysis should have made them impossible;
* register operations execute immediately (registers are per-stage
  exclusive resources).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import ast
from ..lang.pretty import pretty_expr
from .alu import apply_binary, apply_unary
from .hashing import MultiplyShiftHash
from .registers import RegisterFile
from .tables import MatchActionTable

__all__ = ["ExecContext", "SimulationError", "eval_expr", "exec_unit_body"]

_HASH_WIDTH = 1 << 32


class SimulationError(Exception):
    """Semantic violation during simulation (usually a layout bug)."""


@dataclass
class ExecContext:
    """Mutable state for executing one unit within one stage."""

    snapshot: dict[str, int]                 # PHV at stage entry
    registers: RegisterFile
    tables: dict[str, MatchActionTable]
    hash_fns: dict[int, MultiplyShiftHash]
    actions: dict[str, ast.ActionDecl]       # for table-invoked actions
    consts: dict[str, int]
    local_writes: dict[str, int] = field(default_factory=dict)
    scalars: dict[str, int] = field(default_factory=dict)  # bound action params
    table_hits: dict[str, bool] = field(default_factory=dict)

    def hash_fn(self, seed: int) -> MultiplyShiftHash:
        fn = self.hash_fns.get(seed)
        if fn is None:
            fn = self.hash_fns[seed] = MultiplyShiftHash(seed)
        return fn

    def read(self, key: str) -> int:
        if key in self.local_writes:
            return self.local_writes[key]
        return self.snapshot.get(key, 0)

    def write(self, key: str, value: int) -> None:
        self.local_writes[key] = int(value)


def _field_key(expr: ast.Expr, ctx: ExecContext) -> str:
    """Field key with indices evaluated (mirrors analysis' field_key)."""
    if isinstance(expr, ast.Index):
        idx = eval_expr(expr.index, ctx)
        return f"{_field_key(expr.base, ctx)}[{idx}]"
    return pretty_expr(expr)


def _register_instance(expr: ast.Expr, ctx: ExecContext) -> str:
    """Resolve a register reference into its instance name."""
    if isinstance(expr, ast.Name):
        return f"{expr.ident}[0]"
    if isinstance(expr, ast.Index) and isinstance(expr.base, ast.Name):
        idx = eval_expr(expr.index, ctx)
        return f"{expr.base.ident}[{idx}]"
    raise SimulationError(f"bad register reference: {pretty_expr(expr)}")


def eval_expr(expr: ast.Expr, ctx: ExecContext) -> int:
    """Evaluate an expression to an unsigned integer."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.BoolLit):
        return int(expr.value)
    if isinstance(expr, ast.FloatLit):
        raise SimulationError("float literals cannot appear in data-plane code")
    if isinstance(expr, ast.Name):
        if expr.ident in ctx.scalars:
            return ctx.scalars[expr.ident]
        if expr.ident in ctx.consts:
            return ctx.consts[expr.ident]
        return ctx.read(expr.ident)
    if isinstance(expr, (ast.Member, ast.Index)):
        return ctx.read(_field_key(expr, ctx))
    if isinstance(expr, ast.UnaryOp):
        return apply_unary(expr.op, eval_expr(expr.operand, ctx))
    if isinstance(expr, ast.BinaryOp):
        # Logical operators short-circuit (guards like
        # ``i == 0 || (x >> (i - 1)) & 1`` rely on it).
        if expr.op == "&&":
            return int(bool(eval_expr(expr.left, ctx))
                       and bool(eval_expr(expr.right, ctx)))
        if expr.op == "||":
            return int(bool(eval_expr(expr.left, ctx))
                       or bool(eval_expr(expr.right, ctx)))
        return apply_binary(
            expr.op, eval_expr(expr.left, ctx), eval_expr(expr.right, ctx)
        )
    if isinstance(expr, ast.Ternary):
        branch = expr.if_true if eval_expr(expr.cond, ctx) else expr.if_false
        return eval_expr(branch, ctx)
    if isinstance(expr, ast.Call):
        return _eval_call(expr, ctx)
    raise SimulationError(f"cannot evaluate {type(expr).__name__}")


def _eval_call(call: ast.Call, ctx: ExecContext) -> int:
    func = call.func
    if isinstance(func, ast.Name):
        if func.ident == "hash":
            if not call.args:
                raise SimulationError("hash() needs a seed argument")
            seed = eval_expr(call.args[0], ctx)
            values = [eval_expr(a, ctx) for a in call.args[1:]]
            return ctx.hash_fn(seed)(*values, width=_HASH_WIDTH)
        if func.ident == "min":
            return min(eval_expr(a, ctx) for a in call.args)
        if func.ident == "max":
            return max(eval_expr(a, ctx) for a in call.args)
    raise SimulationError(f"cannot evaluate call {pretty_expr(call)}")


def _exec_register_call(call: ast.Call, func: ast.Member, ctx: ExecContext) -> None:
    instance = _register_instance(func.base, ctx)
    array = ctx.registers.get(instance)
    method = func.name
    if method == "read":
        idx = eval_expr(call.args[1], ctx)
        ctx.write(_field_key(call.args[0], ctx), array.read(idx))
    elif method == "write":
        idx = eval_expr(call.args[0], ctx)
        array.write(idx, eval_expr(call.args[1], ctx))
    elif method == "add":
        idx = eval_expr(call.args[0], ctx)
        array.add(idx, eval_expr(call.args[1], ctx))
    elif method == "add_read":
        idx = eval_expr(call.args[1], ctx)
        amount = eval_expr(call.args[2], ctx)
        ctx.write(_field_key(call.args[0], ctx), array.add(idx, amount))
    elif method == "max_update":
        idx = eval_expr(call.args[0], ctx)
        array.max_update(idx, eval_expr(call.args[1], ctx))
    elif method == "min_update":
        idx = eval_expr(call.args[0], ctx)
        array.min_update(idx, eval_expr(call.args[1], ctx))
    elif method == "swap":
        idx = eval_expr(call.args[1], ctx)
        value = eval_expr(call.args[2], ctx)
        ctx.write(_field_key(call.args[0], ctx), array.swap(idx, value))
    elif method == "cond_add":
        idx = eval_expr(call.args[0], ctx)
        cond = eval_expr(call.args[1], ctx)
        array.cond_add(idx, bool(cond), eval_expr(call.args[2], ctx))
    elif method == "cond_add_read":
        idx = eval_expr(call.args[1], ctx)
        cond = eval_expr(call.args[2], ctx)
        amount = eval_expr(call.args[3], ctx)
        ctx.write(
            _field_key(call.args[0], ctx), array.cond_add(idx, bool(cond), amount)
        )
    else:
        raise SimulationError(f"unknown register method {method!r}")


def _exec_table_apply(table_name: str, ctx: ExecContext) -> None:
    table = ctx.tables[table_name]
    key_values = [ctx.read(key) for key in table.key_fields]
    result = table.lookup(key_values)
    ctx.table_hits[table_name] = result.hit
    if result.action in (None, "NoAction"):
        return
    action = ctx.actions.get(result.action)
    if action is None:
        raise SimulationError(
            f"table {table_name!r} selected unknown action {result.action!r}"
        )
    if len(result.action_data) != len(action.params):
        raise SimulationError(
            f"action {result.action!r} expects {len(action.params)} data values, "
            f"entry carries {len(result.action_data)}"
        )
    saved = dict(ctx.scalars)
    for param, value in zip(action.params, result.action_data):
        ctx.scalars[param.name] = int(value)
    try:
        for stmt in action.body.stmts:
            exec_stmt(stmt, ctx)
    finally:
        ctx.scalars = saved


def exec_stmt(stmt: ast.Stmt, ctx: ExecContext) -> None:
    if isinstance(stmt, ast.Assign):
        ctx.write(_field_key(stmt.target, ctx), eval_expr(stmt.value, ctx))
        return
    if isinstance(stmt, ast.CallStmt):
        func = stmt.call.func
        if isinstance(func, ast.Member):
            if func.name == "apply" and isinstance(func.base, ast.Name):
                _exec_table_apply(func.base.ident, ctx)
                return
            _exec_register_call(stmt.call, func, ctx)
            return
    raise SimulationError(f"cannot execute {type(stmt).__name__} in a unit body")


def exec_unit_body(
    body: list[ast.Stmt],
    guard: ast.Expr | None,
    table: str | None,
    ctx: ExecContext,
) -> bool:
    """Run one placed unit; returns False when its guard suppressed it."""
    if guard is not None and not eval_expr(guard, ctx):
        return False
    if table is not None:
        _exec_table_apply(table, ctx)
        return True
    for stmt in body:
        exec_stmt(stmt, ctx)
    return True
