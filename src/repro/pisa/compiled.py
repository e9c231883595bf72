"""One-time lowering of placed unit bodies into execution plans.

The tree-walking interpreter (:mod:`repro.pisa.interp`) re-resolves
field keys, register instances, and hash seeds on every packet. This
module performs that resolution *once*, at :class:`~repro.pisa.pipeline.
Pipeline` construction, translating each placed unit's AST into a flat
tuple of Python closures:

* field keys (``meta.cms_index[2]``) are folded to strings at lowering
  time whenever the index is static — which it always is for unrolled
  elastic loops, since iteration variables were substituted as
  ``IntLit`` during instantiation — with a dynamic-key fallback;
* register references resolve to bound :class:`RegisterArray` methods;
* ``hash(seed, ...)`` calls with a static seed bind the concrete
  :class:`HashFunction` instance (shared with the pipeline's
  control-plane cache, so ``Pipeline.hash_value`` stays bit-identical);
* constant subexpressions fold through the same ALU semantics the
  interpreter uses;
* table applies precompile every declared action's body, binding action
  parameters positionally to the entry's action data.

Error behavior is preserved: constructs the interpreter would reject at
execution time (float literals, unknown register methods, unsupported
statements) lower to closures that raise the same
:class:`SimulationError` when — and only when — they actually run.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..lang import ast
from ..lang.pretty import pretty_expr
from .alu import apply_binary, apply_unary
from .hashing import MultiplyShiftHash
from .interp import SimulationError
from .plan import PipelinePlan, StagePlan, UnitPlan
from .registers import RegisterArray, RegisterError

__all__ = ["build_plan"]

_HASH_WIDTH = 1 << 32
_MASK32 = _HASH_WIDTH - 1
_MASK64 = (1 << 64) - 1
_MISSING = object()


def _specialize_hash(fn) -> Optional[Callable]:
    """Flatten a single-argument multiply-shift hash at width 2**32 into
    one function call (the splitmix64 finalizer inlined, the modulo
    strength-reduced to a mask). Bit-identical to
    ``fn(v, width=1 << 32)``; returns None for other hash kinds, which
    keep going through the generic ``__call__``."""
    if type(fn) is not MultiplyShiftHash:
        return None
    mult = fn._multiplier(0)
    addend = fn._addend

    def fast(v, _m=mult, _a=addend):
        acc = (_a + _m * (int(v) & _MASK64)) & _MASK64
        acc ^= acc >> 30
        acc = acc * 0xBF58476D1CE4E5B9 & _MASK64
        acc ^= acc >> 27
        acc = acc * 0x94D049BB133111EB & _MASK64
        acc ^= acc >> 31
        return acc & _MASK32

    return fast


# ---------------------------------------------------------------------------
# Static folding
# ---------------------------------------------------------------------------


class _NotStatic(Exception):
    """Internal: expression depends on per-packet state."""


def _fold(expr: ast.Expr, consts: dict[str, int],
          shadowed: dict[str, int] = {}) -> int:
    """Evaluate an expression made only of literals/consts; raises
    :class:`_NotStatic` otherwise. ``shadowed`` names (bound action
    params) are per-packet even when a same-named const exists. Mirrors
    the interpreter's semantics (every ALU op is total, so folding
    cannot change error behavior)."""
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.BoolLit):
        return int(expr.value)
    if isinstance(expr, ast.Name):
        if expr.ident not in shadowed and expr.ident in consts:
            return consts[expr.ident]
        raise _NotStatic
    if isinstance(expr, ast.UnaryOp):
        return apply_unary(expr.op, _fold(expr.operand, consts, shadowed))
    if isinstance(expr, ast.BinaryOp):
        return apply_binary(
            expr.op,
            _fold(expr.left, consts, shadowed),
            _fold(expr.right, consts, shadowed),
        )
    if isinstance(expr, ast.Ternary):
        branch = (expr.if_true if _fold(expr.cond, consts, shadowed)
                  else expr.if_false)
        return _fold(branch, consts, shadowed)
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.ident == "min":
            return min(_fold(a, consts, shadowed) for a in expr.args)
        if expr.func.ident == "max":
            return max(_fold(a, consts, shadowed) for a in expr.args)
    raise _NotStatic


def _const_expr(value: int) -> Callable:
    return lambda phv, local, args, _v=value: _v


def _raising_expr(message: str) -> Callable:
    def fail(phv, local, args, _m=message):
        raise SimulationError(_m)

    return fail


def _raising_step(message: str) -> Callable:
    def fail(phv, local, args, hits, _m=message):
        raise SimulationError(_m)

    return fail


def _field_reader(key: str) -> Callable:
    def read(phv, local, args, _k=key):
        value = local.get(_k, _MISSING)
        if value is _MISSING:
            return phv.get(_k, 0)
        return value

    return read


# ---------------------------------------------------------------------------
# The lowering context
# ---------------------------------------------------------------------------


class _Lowering:
    """Shared state for lowering one compiled program."""

    def __init__(self, consts, registers, tables, actions,
                 hash_fns, hash_factory):
        self.consts = consts
        self.registers = registers
        self.tables = tables
        self.actions = actions
        self.hash_fns = hash_fns
        self.hash_factory = hash_factory
        self._hash_fast: dict[int, Optional[Callable]] = {}
        #: action name -> (param count, step tuple); closures look this
        #: up at call time, so mutually recursive applies are fine.
        self.action_fns: dict[str, tuple[int, tuple]] = {}
        for name, decl in actions.items():
            self.action_fns[name] = self._compile_action(decl)

    # -- hashing ---------------------------------------------------------------
    def hash_fn(self, seed: int):
        """Resolve a static seed to the pipeline's shared hash instance."""
        fn = self.hash_fns.get(seed)
        if fn is None:
            fn = self.hash_factory(seed)
            self.hash_fns[seed] = fn
        return fn

    def fast_hash(self, seed: int) -> Optional[Callable]:
        """Per-seed cache over :func:`_specialize_hash`."""
        fast = self._hash_fast.get(seed, _MISSING)
        if fast is _MISSING:
            fast = _specialize_hash(self.hash_fn(seed))
            self._hash_fast[seed] = fast
        return fast

    # -- field keys ------------------------------------------------------------
    def field_key(self, expr: ast.Expr, scalars: dict[str, int]):
        """Resolve an lvalue/field reference to a key: a ``str`` when all
        indices are static, else a closure computing it per packet."""
        if not isinstance(expr, ast.Index):
            return pretty_expr(expr)
        base = self.field_key(expr.base, scalars)
        try:
            idx = _fold(expr.index, self.consts, scalars)
        except _NotStatic:
            idx = None
        if idx is not None and isinstance(base, str):
            return f"{base}[{idx}]"
        base_fn = base if callable(base) else _const_str(base)
        idx_fn = self.expr(expr.index, scalars)

        def key(phv, local, args, _b=base_fn, _i=idx_fn):
            return f"{_b(phv, local, args)}[{_i(phv, local, args)}]"

        return key

    def reader(self, key) -> Callable:
        """Compile a field read from a resolved key (str or closure)."""
        if isinstance(key, str):
            return _field_reader(key)

        def read(phv, local, args, _k=key):
            name = _k(phv, local, args)
            value = local.get(name, _MISSING)
            if value is _MISSING:
                return phv.get(name, 0)
            return value

        return read

    def writer(self, key) -> Callable:
        """Compile ``(phv, local, args, value) -> None`` for a key."""
        if isinstance(key, str):
            def write(phv, local, args, value, _k=key):
                local[_k] = value
        else:
            def write(phv, local, args, value, _k=key):
                local[_k(phv, local, args)] = value
        return write

    # -- registers -------------------------------------------------------------
    def register_array(self, expr: ast.Expr, scalars: dict[str, int]):
        """Resolve a register reference. Returns the concrete
        :class:`RegisterArray` when the instance is static and exists,
        else a closure resolving (and possibly failing) per packet."""
        if isinstance(expr, ast.Name):
            instance = f"{expr.ident}[0]"
        elif isinstance(expr, ast.Index) and isinstance(expr.base, ast.Name):
            try:
                idx = _fold(expr.index, self.consts, scalars)
            except _NotStatic:
                idx_fn = self.expr(expr.index, scalars)
                registers = self.registers

                def resolve(phv, local, args, _base=expr.base.ident, _i=idx_fn):
                    return registers.get(f"{_base}[{_i(phv, local, args)}]")

                return resolve
            instance = f"{expr.base.ident}[{idx}]"
        else:
            message = f"bad register reference: {pretty_expr(expr)}"

            def bad(phv, local, args, _m=message):
                raise SimulationError(_m)

            return bad
        try:
            return self.registers.get(instance)
        except RegisterError:
            registers = self.registers

            def late(phv, local, args, _n=instance):
                return registers.get(_n)  # raises RegisterError, as interp does

            return late

    # -- expressions -----------------------------------------------------------
    def expr(self, expr: ast.Expr, scalars: dict[str, int]) -> Callable:
        """Lower one expression to a closure ``(phv, local, args) -> int``."""
        if not isinstance(expr, (ast.Name,)) or expr.ident not in scalars:
            try:
                return _const_expr(_fold(expr, self.consts, scalars))
            except _NotStatic:
                pass
        if isinstance(expr, ast.FloatLit):
            return _raising_expr("float literals cannot appear in data-plane code")
        if isinstance(expr, ast.Name):
            if expr.ident in scalars:
                pos = scalars[expr.ident]
                return lambda phv, local, args, _p=pos: args[_p]
            return _field_reader(expr.ident)
        if isinstance(expr, (ast.Member, ast.Index)):
            return self.reader(self.field_key(expr, scalars))
        if isinstance(expr, ast.UnaryOp):
            operand = self.expr(expr.operand, scalars)
            if expr.op == "-":
                return lambda phv, local, args: -operand(phv, local, args)
            if expr.op == "~":
                return lambda phv, local, args: ~operand(phv, local, args)
            if expr.op == "!":
                return (lambda phv, local, args:
                        0 if operand(phv, local, args) else 1)
            op = expr.op
            return (lambda phv, local, args:
                    apply_unary(op, operand(phv, local, args)))
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr, scalars)
        if isinstance(expr, ast.Ternary):
            cond = self.expr(expr.cond, scalars)
            if_true = self.expr(expr.if_true, scalars)
            if_false = self.expr(expr.if_false, scalars)
            return (lambda phv, local, args:
                    if_true(phv, local, args) if cond(phv, local, args)
                    else if_false(phv, local, args))
        if isinstance(expr, ast.Call):
            return self._call(expr, scalars)
        return _raising_expr(f"cannot evaluate {type(expr).__name__}")

    def _binary(self, expr: ast.BinaryOp, scalars) -> Callable:
        a = self.expr(expr.left, scalars)
        b = self.expr(expr.right, scalars)
        op = expr.op
        # Specialized closures keep the hot loop free of dict dispatch;
        # semantics match repro.pisa.alu exactly (including /0 == 0 and
        # the 64-bit shift clamp). Logical operators short-circuit.
        if op == "+":
            return lambda p, l, g: a(p, l, g) + b(p, l, g)
        if op == "-":
            return lambda p, l, g: a(p, l, g) - b(p, l, g)
        if op == "*":
            return lambda p, l, g: a(p, l, g) * b(p, l, g)
        if op == "&":
            return lambda p, l, g: a(p, l, g) & b(p, l, g)
        if op == "|":
            return lambda p, l, g: a(p, l, g) | b(p, l, g)
        if op == "^":
            return lambda p, l, g: a(p, l, g) ^ b(p, l, g)
        if op == "/":
            def div(p, l, g):
                rhs = b(p, l, g)
                return a(p, l, g) // rhs if rhs else 0
            return div
        if op == "%":
            def mod(p, l, g):
                rhs = b(p, l, g)
                return a(p, l, g) % rhs if rhs else 0
            return mod
        if op == "<<":
            return lambda p, l, g: a(p, l, g) << min(b(p, l, g), 64)
        if op == ">>":
            return lambda p, l, g: a(p, l, g) >> min(b(p, l, g), 64)
        if op == "==":
            return lambda p, l, g: 1 if a(p, l, g) == b(p, l, g) else 0
        if op == "!=":
            return lambda p, l, g: 1 if a(p, l, g) != b(p, l, g) else 0
        if op == "<":
            return lambda p, l, g: 1 if a(p, l, g) < b(p, l, g) else 0
        if op == ">":
            return lambda p, l, g: 1 if a(p, l, g) > b(p, l, g) else 0
        if op == "<=":
            return lambda p, l, g: 1 if a(p, l, g) <= b(p, l, g) else 0
        if op == ">=":
            return lambda p, l, g: 1 if a(p, l, g) >= b(p, l, g) else 0
        if op == "&&":
            return lambda p, l, g: 1 if a(p, l, g) and b(p, l, g) else 0
        if op == "||":
            return lambda p, l, g: 1 if a(p, l, g) or b(p, l, g) else 0
        return lambda p, l, g: apply_binary(op, a(p, l, g), b(p, l, g))

    def _call(self, call: ast.Call, scalars) -> Callable:
        func = call.func
        if isinstance(func, ast.Name):
            if func.ident == "hash":
                if not call.args:
                    return _raising_expr("hash() needs a seed argument")
                value_fns = tuple(self.expr(a, scalars) for a in call.args[1:])
                try:
                    seed = _fold(call.args[0], self.consts, scalars)
                except _NotStatic:
                    seed_fn = self.expr(call.args[0], scalars)
                    resolve = self.hash_fn

                    def dyn_hash(p, l, g, _s=seed_fn, _v=value_fns):
                        fn = resolve(_s(p, l, g))
                        return fn(*[v(p, l, g) for v in _v], width=_HASH_WIDTH)

                    return dyn_hash
                fn = self.hash_fn(seed)
                if len(value_fns) == 1:
                    v0 = value_fns[0]
                    fast = self.fast_hash(seed)
                    if fast is not None:
                        return (lambda p, l, g, _f=fast, _v=v0:
                                _f(_v(p, l, g)))
                    return (lambda p, l, g, _f=fn, _v=v0:
                            _f(_v(p, l, g), width=_HASH_WIDTH))

                def static_hash(p, l, g, _f=fn, _v=value_fns):
                    return _f(*[v(p, l, g) for v in _v], width=_HASH_WIDTH)

                return static_hash
            if func.ident == "min":
                fns = tuple(self.expr(a, scalars) for a in call.args)
                return lambda p, l, g: min(f(p, l, g) for f in fns)
            if func.ident == "max":
                fns = tuple(self.expr(a, scalars) for a in call.args)
                return lambda p, l, g: max(f(p, l, g) for f in fns)
        return _raising_expr(f"cannot evaluate call {pretty_expr(call)}")

    # -- statements ------------------------------------------------------------
    def stmt(self, stmt: ast.Stmt, scalars: dict[str, int]) -> Callable:
        """Lower one statement to a step ``(phv, local, args, hits)``."""
        if isinstance(stmt, ast.Assign):
            value_fn = self.expr(stmt.value, scalars)
            key = self.field_key(stmt.target, scalars)
            if isinstance(key, str):
                def assign(phv, local, args, hits, _k=key, _v=value_fn):
                    local[_k] = _v(phv, local, args)
            else:
                def assign(phv, local, args, hits, _k=key, _v=value_fn):
                    local[_k(phv, local, args)] = _v(phv, local, args)
            return assign
        if isinstance(stmt, ast.CallStmt):
            func = stmt.call.func
            if isinstance(func, ast.Member):
                if func.name == "apply" and isinstance(func.base, ast.Name):
                    return self.table_step(func.base.ident)
                return self._register_step(stmt.call, func, scalars)
        return _raising_step(
            f"cannot execute {type(stmt).__name__} in a unit body"
        )

    def _register_step(self, call: ast.Call, func: ast.Member,
                       scalars) -> Callable:
        # ``array`` is either a RegisterArray (static) or a resolver
        # closure; the per-method closures stay specialized for the
        # common static case.
        array = self.register_array(func.base, scalars)
        static = not callable(array)
        method = func.name
        arg = lambda i: self.expr(call.args[i], scalars)

        def dest(i):
            return self.writer(self.field_key(call.args[i], scalars))

        if method == "read":
            w, i = dest(0), arg(1)
            if static:
                return (lambda p, l, g, h, _w=w, _i=i, _a=array:
                        _w(p, l, g, _a.read(_i(p, l, g))))
            return (lambda p, l, g, h, _w=w, _i=i, _a=array:
                    _w(p, l, g, _a(p, l, g).read(_i(p, l, g))))
        if method == "write":
            i, v = arg(0), arg(1)
            if static:
                return (lambda p, l, g, h, _i=i, _v=v, _a=array:
                        _a.write(_i(p, l, g), _v(p, l, g)))
            return (lambda p, l, g, h, _i=i, _v=v, _a=array:
                    _a(p, l, g).write(_i(p, l, g), _v(p, l, g)))
        if method == "add":
            i, v = arg(0), arg(1)
            if static:
                add = array.add
                return (lambda p, l, g, h, _i=i, _v=v, _add=add:
                        _add(_i(p, l, g), _v(p, l, g)))
            return (lambda p, l, g, h, _i=i, _v=v, _a=array:
                    _a(p, l, g).add(_i(p, l, g), _v(p, l, g)))
        if method == "add_read":
            w, i, v = dest(0), arg(1), arg(2)
            if static:
                add = array.add
                return (lambda p, l, g, h, _w=w, _i=i, _v=v, _add=add:
                        _w(p, l, g, _add(_i(p, l, g), _v(p, l, g))))
            return (lambda p, l, g, h, _w=w, _i=i, _v=v, _a=array:
                    _w(p, l, g, _a(p, l, g).add(_i(p, l, g), _v(p, l, g))))
        if method == "max_update":
            i, v = arg(0), arg(1)
            if static:
                return (lambda p, l, g, h, _i=i, _v=v, _a=array:
                        _a.max_update(_i(p, l, g), _v(p, l, g)))
            return (lambda p, l, g, h, _i=i, _v=v, _a=array:
                    _a(p, l, g).max_update(_i(p, l, g), _v(p, l, g)))
        if method == "min_update":
            i, v = arg(0), arg(1)
            if static:
                return (lambda p, l, g, h, _i=i, _v=v, _a=array:
                        _a.min_update(_i(p, l, g), _v(p, l, g)))
            return (lambda p, l, g, h, _i=i, _v=v, _a=array:
                    _a(p, l, g).min_update(_i(p, l, g), _v(p, l, g)))
        if method == "swap":
            w, i, v = dest(0), arg(1), arg(2)
            if static:
                return (lambda p, l, g, h, _w=w, _i=i, _v=v, _a=array:
                        _w(p, l, g, _a.swap(_i(p, l, g), _v(p, l, g))))
            return (lambda p, l, g, h, _w=w, _i=i, _v=v, _a=array:
                    _w(p, l, g, _a(p, l, g).swap(_i(p, l, g), _v(p, l, g))))
        if method == "cond_add":
            i, c, v = arg(0), arg(1), arg(2)
            if static:
                return (lambda p, l, g, h, _i=i, _c=c, _v=v, _a=array:
                        _a.cond_add(_i(p, l, g), bool(_c(p, l, g)),
                                    _v(p, l, g)))
            return (lambda p, l, g, h, _i=i, _c=c, _v=v, _a=array:
                    _a(p, l, g).cond_add(_i(p, l, g), bool(_c(p, l, g)),
                                         _v(p, l, g)))
        if method == "cond_add_read":
            w, i, c, v = dest(0), arg(1), arg(2), arg(3)
            if static:
                return (lambda p, l, g, h, _w=w, _i=i, _c=c, _v=v, _a=array:
                        _w(p, l, g, _a.cond_add(_i(p, l, g),
                                                bool(_c(p, l, g)),
                                                _v(p, l, g))))
            return (lambda p, l, g, h, _w=w, _i=i, _c=c, _v=v, _a=array:
                    _w(p, l, g, _a(p, l, g).cond_add(_i(p, l, g),
                                                     bool(_c(p, l, g)),
                                                     _v(p, l, g))))
        return _raising_step(f"unknown register method {method!r}")

    # -- tables ----------------------------------------------------------------
    def table_step(self, table_name: str) -> Callable:
        table = self.tables.get(table_name)
        if table is None:
            # Interp fails with a KeyError at execution time; defer alike.
            tables = self.tables

            def missing(phv, local, args, hits, _n=table_name):
                tables[_n]  # raises KeyError

            return missing
        key_readers = tuple(_field_reader(k) for k in table.key_fields)
        action_fns = self.action_fns
        lookup = table.lookup

        def step(phv, local, args, hits, _n=table_name):
            key_values = [r(phv, local, args) for r in key_readers]
            result = lookup(key_values)
            hits[_n] = result.hit
            name = result.action
            if name is None or name == "NoAction":
                return
            entry = action_fns.get(name)
            if entry is None:
                raise SimulationError(
                    f"table {_n!r} selected unknown action {name!r}"
                )
            nparams, steps = entry
            data = result.action_data
            if len(data) != nparams:
                raise SimulationError(
                    f"action {name!r} expects {nparams} data values, "
                    f"entry carries {len(data)}"
                )
            bound = tuple(int(v) for v in data)
            for action_step in steps:
                action_step(phv, local, bound, hits)

        return step

    def _compile_action(self, decl: ast.ActionDecl) -> tuple[int, tuple]:
        scalars = {param.name: pos for pos, param in enumerate(decl.params)}
        steps = tuple(self.stmt(s, scalars) for s in decl.body.stmts)
        return (len(decl.params), steps)


def _const_str(value: str) -> Callable:
    return lambda phv, local, args, _v=value: _v


# ---------------------------------------------------------------------------
# Source codegen: the inline fast path
# ---------------------------------------------------------------------------


class _NotInlinable(Exception):
    """Internal: construct needs the generic closure tier."""


def _div(a: int, b: int) -> int:
    return a // b if b else 0


def _mod(a: int, b: int) -> int:
    return a % b if b else 0


_INLINE_ARITH = {"+", "-", "*", "&", "|", "^"}
_INLINE_CMP = {"==", "!=", "<", ">", "<=", ">="}
#: register method -> position of the PHV destination argument (or None)
_REG_METHODS = {
    "read": 0,
    "write": None,
    "add": None,
    "add_read": 0,
    "max_update": None,
    "min_update": None,
    "swap": 0,
    "cond_add": None,
    "cond_add_read": 0,
}


class _SourceGen:
    """Generates one ``compile()``-able function for the whole pipeline.

    Fully static stages — no table applies, no dynamic field keys or
    register indices, pairwise-disjoint write-sets — are inlined as
    straight-line Python: reads are dict lookups, commits are
    ``phv[key] = value & <literal mask>``, registers and hash units are
    pre-bound methods. Anything else compiles to a call into the closure
    plan's :meth:`~repro.pisa.plan.PipelinePlan.run_stage`.
    """

    def __init__(self, lowering: _Lowering, plan: PipelinePlan, pipeline):
        self.low = lowering
        self.plan = plan
        self.pipeline = pipeline
        self.ns: dict[str, object] = {}
        self._bound: dict[tuple, str] = {}   # (id(obj), attr) -> name
        self._n = 0

    def _bind(self, obj, prefix: str) -> str:
        name = f"_{prefix}{self._n}"
        self._n += 1
        self.ns[name] = obj
        return name

    def _bind_method(self, array, method: str) -> str:
        key = (id(array), method)
        name = self._bound.get(key)
        if name is None:
            name = self._bind(getattr(array, method), "r")
            self._bound[key] = name
        return name

    def _bind_fn(self, fn) -> str:
        key = (id(fn), "fn")
        name = self._bound.get(key)
        if name is None:
            name = self._bind(fn, "f")
            self._bound[key] = name
        return name

    # -- expressions -----------------------------------------------------------
    def expr(self, expr: ast.Expr, env: dict[str, str]) -> str:
        """Emit a Python expression; ``env`` maps field keys written
        earlier in this unit to their local variable names."""
        try:
            return repr(_fold(expr, self.low.consts))
        except _NotStatic:
            pass
        if isinstance(expr, ast.Name):
            return self._read(expr.ident, env)
        if isinstance(expr, (ast.Member, ast.Index)):
            key = self.low.field_key(expr, {})
            if not isinstance(key, str):
                raise _NotInlinable
            return self._read(key, env)
        if isinstance(expr, ast.UnaryOp):
            a = self.expr(expr.operand, env)
            if expr.op == "-":
                return f"(-{a})"
            if expr.op == "~":
                return f"(~{a})"
            if expr.op == "!":
                return f"(0 if {a} else 1)"
            raise _NotInlinable
        if isinstance(expr, ast.BinaryOp):
            op = expr.op
            a = self.expr(expr.left, env)
            b = self.expr(expr.right, env)
            if op in _INLINE_ARITH:
                return f"({a} {op} {b})"
            if op in _INLINE_CMP:
                return f"(1 if {a} {op} {b} else 0)"
            if op == "&&":
                return f"(1 if {a} and {b} else 0)"
            if op == "||":
                return f"(1 if {a} or {b} else 0)"
            if op in ("<<", ">>"):
                return f"({a} {op} min({b}, 64))"
            if op in ("/", "%"):
                helper = self._bind_fn(_div if op == "/" else _mod)
                return f"{helper}({a}, {b})"
            raise _NotInlinable
        if isinstance(expr, ast.Ternary):
            c = self.expr(expr.cond, env)
            t = self.expr(expr.if_true, env)
            f = self.expr(expr.if_false, env)
            return f"({t} if {c} else {f})"
        if isinstance(expr, ast.Call):
            return self._call(expr, env)
        raise _NotInlinable

    def _read(self, key: str, env: dict[str, str]) -> str:
        var = env.get(key)
        if var is not None:
            return var
        return f"phv.get({key!r}, 0)"

    def _call(self, call: ast.Call, env: dict[str, str]) -> str:
        func = call.func
        if not isinstance(func, ast.Name):
            raise _NotInlinable
        if func.ident == "hash" and call.args:
            try:
                seed = _fold(call.args[0], self.low.consts)
            except _NotStatic:
                raise _NotInlinable from None
            fn = self.low.hash_fn(seed)
            values = [self.expr(a, env) for a in call.args[1:]]
            if len(values) == 1:
                fast = self.low.fast_hash(seed)
                if fast is not None:
                    return f"{self._bind_fn(fast)}({values[0]})"
            inner = ", ".join(values + [f"width={_HASH_WIDTH}"])
            return f"{self._bind_fn(fn)}({inner})"
        if func.ident in ("min", "max") and call.args:
            values = ", ".join(self.expr(a, env) for a in call.args)
            return f"{func.ident}({values})"
        raise _NotInlinable

    # -- units and stages ------------------------------------------------------
    def _unit_lines(self, uidx: int, inst,
                    writes: dict[str, str]) -> tuple[list[str], str]:
        """Emit one unit's body; fills ``writes`` (key -> local var) and
        returns (lines, ran-flag expression or "")."""
        if inst.table is not None:
            raise _NotInlinable
        counter = [0]
        tcounter = [0]

        def var_for(target) -> str:
            key = self.low.field_key(target, {})
            if not isinstance(key, str) or key not in self.plan.masks:
                raise _NotInlinable
            var = writes.get(key)
            if var is None:
                var = f"u{uidx}_v{counter[0]}"
                counter[0] += 1
                writes[key] = var
            return var

        def temp() -> str:
            var = f"u{uidx}_t{tcounter[0]}"
            tcounter[0] += 1
            return var

        env = writes  # reads resolve against this unit's earlier writes
        body: list[str] = []
        for stmt in inst.body:
            if isinstance(stmt, ast.Assign):
                value = self.expr(stmt.value, env)
                body.append(f"{var_for(stmt.target)} = {value}")
                continue
            if not (isinstance(stmt, ast.CallStmt)
                    and isinstance(stmt.call.func, ast.Member)):
                raise _NotInlinable
            call, func = stmt.call, stmt.call.func
            if func.name not in _REG_METHODS:
                raise _NotInlinable
            array = self.low.register_array(func.base, {})
            if callable(array):           # dynamic or unresolved instance
                raise _NotInlinable
            dest_pos = _REG_METHODS[func.name]
            method = func.name
            # The counter-increment op dominates sketch workloads; open-code
            # it (same read-add-write as RegisterArray.add, literal mask and
            # modulo) instead of paying two calls per packet.
            if (method in ("add", "add_read")
                    and type(array) is RegisterArray):
                base = 1 if method == "add_read" else 0
                try:
                    idx = self.expr(call.args[base], env)
                    amount = self.expr(call.args[base + 1], env)
                except IndexError:
                    raise _NotInlinable from None
                data = self._bind_method(array, "_data")
                slot = temp()
                body.append(f"{slot} = ({idx}) % {array.cells}")
                update = f"(int({data}[{slot}]) + ({amount})) & {array.mask}"
                if method == "add_read":
                    var = var_for(call.args[0])
                    body.append(f"{var} = {update}")
                    body.append(f"{data}[{slot}] = {var}")
                else:
                    body.append(f"{data}[{slot}] = {update}")
                continue
            if method == "add_read":
                method = "add"
            elif method == "cond_add_read":
                method = "cond_add"
            bound = self._bind_method(array, method)
            try:
                if func.name == "read":
                    call_src = f"{bound}({self.expr(call.args[1], env)})"
                elif func.name in ("cond_add", "cond_add_read"):
                    base = 1 if func.name == "cond_add_read" else 0
                    idx = self.expr(call.args[base], env)
                    cond = self.expr(call.args[base + 1], env)
                    amount = self.expr(call.args[base + 2], env)
                    call_src = f"{bound}({idx}, bool({cond}), {amount})"
                else:
                    base = 1 if dest_pos == 0 else 0
                    idx = self.expr(call.args[base], env)
                    value = self.expr(call.args[base + 1], env)
                    call_src = f"{bound}({idx}, {value})"
            except IndexError:
                raise _NotInlinable from None
            if dest_pos is None:
                body.append(call_src)
            else:
                body.append(f"{var_for(call.args[dest_pos])} = {call_src}")
        ran = ""
        if inst.guard is not None:
            ran = self.expr(inst.guard, {})
        return body, ran

    def _stage_lines(self, splan: StagePlan, units) -> list[str]:
        """Inline one stage, or raise :class:`_NotInlinable`."""
        emitted = []                     # (uidx, body, ran_expr, writes)
        for uidx, unit in enumerate(units):
            writes: dict[str, str] = {}
            body, ran = self._unit_lines(uidx, unit.instance, writes)
            emitted.append((uidx, body, ran, writes))
        # Overlapping write-sets need the generic tier's conflict check.
        seen: set[str] = set()
        for _, _, _, writes in emitted:
            if seen & writes.keys():
                raise _NotInlinable
            seen |= writes.keys()
        lines: list[str] = [f"# stage {splan.stage}"]
        for uidx, body, ran, writes in emitted:
            if not body:
                continue
            if ran:
                lines.append(f"u{uidx}_ran = 1 if {ran} else 0")
                lines.append(f"if u{uidx}_ran:")
                lines.extend(f"    {line}" for line in body)
            else:
                lines.extend(body)
        # All commits after all bodies: stage-entry read semantics.
        for uidx, body, ran, writes in emitted:
            if not writes:
                continue
            indent = ""
            if ran:
                lines.append(f"if u{uidx}_ran:")
                indent = "    "
            for key, var in writes.items():
                mask = self.plan.masks[key]
                lines.append(f"{indent}phv[{key!r}] = {var} & {mask}")
        return lines

    def build(self):
        """Generate and compile the fast-path function, or return None
        when nothing is inlinable (the closure plan runs as-is)."""
        body: list[str] = []
        inlined = 0
        runner = self._bind(self.plan.run_stage, "stage")
        for splan in self.plan.stages:
            units = self.pipeline._stage_units[splan.stage]
            try:
                body.extend(self._stage_lines(splan, units))
                inlined += 1
            except _NotInlinable:
                sp = self._bind(splan, "plan")
                body.append(f"# stage {splan.stage}: generic tier")
                body.append(f"{runner}({sp}, phv, hits)")
        if not inlined:
            return None, ""
        if not body:
            body = ["pass"]
        source = "\n".join(
            ["def _fast_run(phv, hits):"] + [f"    {line}" for line in body]
        )
        code = compile(source, "<pisa-execution-plan>", "exec")
        namespace = dict(self.ns)
        exec(code, namespace)
        return namespace["_fast_run"], source


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_plan(pipeline) -> PipelinePlan:
    """Lower a pipeline's placed program into a :class:`PipelinePlan`.

    Called once from ``Pipeline.__init__`` (engine ``"compiled"``); the
    result shares the pipeline's register file, tables, and hash-function
    cache, so control-plane mutations (table entries, register writes)
    are visible to already-compiled closures with no re-lowering.
    """
    lowering = _Lowering(
        consts=pipeline.info.consts,
        registers=pipeline.registers,
        tables=pipeline.tables,
        actions=pipeline.info.actions,
        hash_fns=pipeline._hash_fns,
        hash_factory=pipeline._hash_factory,
    )
    # Module attribution (for the plan-level taint pass) — local import:
    # analysis imports pisa.resources, so a top-level import would cycle.
    from ..analysis.ir import module_of_instance

    namespace = getattr(pipeline.info, "namespace", None)
    plan = PipelinePlan(masks=pipeline.phv_layout.width_masks())
    no_scalars: dict[str, int] = {}
    for stage, units in enumerate(pipeline._stage_units):
        if not units:
            continue
        unit_plans = []
        for unit in units:
            inst = unit.instance
            guard = (lowering.expr(inst.guard, no_scalars)
                     if inst.guard is not None else None)
            if inst.table is not None:
                steps: tuple = (lowering.table_step(inst.table),)
            else:
                steps = tuple(
                    lowering.stmt(s, no_scalars) for s in inst.body
                )
            unit_plans.append(UnitPlan(
                label=unit.label,
                guard=guard,
                steps=steps,
                reads=frozenset(inst.reads),
                writes=frozenset(inst.writes),
                registers=frozenset(f for f, _ in inst.registers),
                module=(module_of_instance(inst, namespace)
                        if namespace is not None else None),
            ))
        plan.stages.append(StagePlan(
            stage=stage,
            units=tuple(unit_plans),
            reads=frozenset().union(*(u.reads for u in unit_plans)),
            writes=frozenset().union(*(u.writes for u in unit_plans)),
        ))
    # Second tier: inline fully static stages into one generated function.
    plan.fast_run, plan.fast_source = _SourceGen(
        lowering, plan, pipeline).build()
    return plan
