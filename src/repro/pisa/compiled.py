"""One-time lowering of placed unit bodies into generated Python source.

The tree-walking interpreter (:mod:`repro.pisa.interp`) re-resolves
field keys, register instances, and hash seeds on every packet. P4All
unrolls every bounded loop and substitutes the iteration index as a
literal before placement, so a placed unit body is static by
construction; this module resolves it *once*, at :class:`~repro.pisa.
pipeline.Pipeline` construction, and emits every active stage as the
text of one ``compile()``-d Python function:

* field keys (``meta.cms_index[2]``) fold to string literals, register
  references to pre-bound :class:`RegisterArray` methods, ``hash(seed,
  ...)`` to the concrete :class:`HashFunction` instance (shared with the
  pipeline's control-plane cache, so ``Pipeline.hash_value`` stays
  bit-identical), constant subexpressions to literals — all through the
  same ALU semantics the interpreter uses;
* what is left dynamic is what a data plane decides per packet: a table
  apply calls a generated per-table function that looks the entry up
  and hands its action data, positionally, to a generated per-action
  function; a field, register instance or hash seed indexed by an
  action parameter or a PHV value is computed where it is used.

A stage is emitted in one of two forms. *Straight-line*: every write is
a local variable and the stage-exit commit is ``phv[key] = local &
<literal mask>`` — possible when every written key is a static,
allocated field and no two units write the same one. *Buffered*
otherwise: each unit writes a dict ``w`` (reads look there first), and
the dicts are merged, conflict-checked and committed at stage exit,
exactly as the interpreter does it.

Error behavior is preserved: constructs the interpreter rejects at
execution time (float literals, unknown actions, a write to a field the
PHV never allocated, conflicting same-stage writes) raise the same
exception with the same message when — and only when — they run.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..lang import ast
from ..lang.pretty import pretty_expr
from .alu import apply_binary, apply_unary
from .hashing import MultiplyShiftHash
from .interp import SimulationError
from .phv import PhvError
from .plan import PipelinePlan, StagePlan
from .registers import RegisterArray, RegisterError

__all__ = ["build_plan"]

_HASH_WIDTH = 1 << 32
_MASK32 = _HASH_WIDTH - 1
_MASK64 = (1 << 64) - 1


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
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.ident in ("min", "max") and expr.args):
        pick = min if expr.func.ident == "min" else max
        return pick(_fold(a, consts, shadowed) for a in expr.args)
    raise _NotStatic


# ---------------------------------------------------------------------------
# The resolver both lowerers share
# ---------------------------------------------------------------------------


class _Lowering:
    """What a placed program's names statically denote on one pipeline.

    Shared by the source generator below and the vector lowerer
    (:mod:`repro.pisa.vector`), so both bind the very same register
    arrays and hash instances the control plane sees."""

    def __init__(self, pipeline):
        self.consts = pipeline.info.consts
        self.registers = pipeline.registers
        self.tables = pipeline.tables
        self.actions = pipeline.info.actions
        #: Static seed -> the pipeline's shared hash instance.
        self.hash_fn = pipeline._hash_fn
        self._hash_fast: dict[int, Optional[Callable]] = {}

    def fast_hash(self, seed: int) -> Optional[Callable]:
        """Per-seed cache over :func:`_specialize_hash`."""
        if seed not in self._hash_fast:
            self._hash_fast[seed] = _specialize_hash(self.hash_fn(seed))
        return self._hash_fast[seed]

    def field_key(self, expr: ast.Expr, scalars) -> Optional[str]:
        """The PHV key of an lvalue/field reference, or None when an
        index depends on the packet (``scalars`` names the bound action
        parameters, which shadow constants)."""
        if not isinstance(expr, ast.Index):
            return pretty_expr(expr)
        base = self.field_key(expr.base, scalars)
        try:
            idx = _fold(expr.index, self.consts, scalars)
        except _NotStatic:
            return None
        return None if base is None else f"{base}[{idx}]"

    def register_array(self, expr: ast.Expr,
                       scalars) -> Optional[RegisterArray]:
        """The array a register reference statically denotes, or None
        when the instance is chosen per packet, was never allocated, or
        is not a register reference at all."""
        if isinstance(expr, ast.Name):
            instance = f"{expr.ident}[0]"
        elif isinstance(expr, ast.Index) and isinstance(expr.base, ast.Name):
            try:
                idx = _fold(expr.index, self.consts, scalars)
            except _NotStatic:
                return None
            instance = f"{expr.base.ident}[{idx}]"
        else:
            return None
        try:
            return self.registers.get(instance)
        except RegisterError:
            return None


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


class _Buffered(Exception):
    """Internal: this stage cannot keep its writes in local variables
    and is emitted in the buffered form; the message says why."""


def _div(a: int, b: int) -> int:
    return a // b if b else 0


def _mod(a: int, b: int) -> int:
    return a % b if b else 0


def _raise(message: str):
    raise SimulationError(message)


def _read_key(w: dict, phv: dict, key: str) -> int:
    return w[key] if key in w else phv.get(key, 0)


def _merge(commits: dict, owners: dict, w: dict, label: str,
           stage: int) -> None:
    """Fold one unit's buffered writes into its stage's commit set;
    same-stage units may write one key only if they agree on the value."""
    for key, value in w.items():
        if key in commits and commits[key] != value:
            raise SimulationError(
                f"stage {stage}: units {owners[key]!r} and {label!r} "
                f"write different values to {key!r}"
            )
        commits[key] = value
        owners[key] = label


def _commit(phv: dict, commits: dict, masks: dict) -> None:
    """Stage exit: every buffered write lands in the PHV, width-masked."""
    for key, value in commits.items():
        mask = masks.get(key)
        if mask is None:
            raise PhvError(f"PHV field {key!r} was never allocated")
        phv[key] = int(value) & mask


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
#: One generated function per applied table: look the entry up, record
#: the hit, hand the action its entry data positionally.
_TABLE_SOURCE = """\
def _t_{name}(phv, w, hits):
    r = {tables}[{name!r}].lookup([{keys}])
    hits[{name!r}] = r.hit
    a = r.action
    if a is None or a == 'NoAction':
        return
    f = _A.get(a)
    if f is None:
        raise SimulationError(
            f"table {name!r} selected unknown action {{a!r}}")
    d = r.action_data
    if len(d) != f[0]:
        raise SimulationError(
            f"action {{a!r}} expects {{f[0]}} data values, "
            f"entry carries {{len(d)}}")
    f[1](phv, w, hits, *[int(v) for v in d])"""


class _Scope:
    """Where the names of one unit or action body resolve while it is
    emitted."""

    def __init__(self, prefix: str, writes: Optional[dict], scalars=()):
        self.prefix = prefix
        #: Straight-line form: field key -> the local holding this
        #: unit's write to it. None in the buffered form (writes go to
        #: the dict ``w``).
        self.writes = writes
        #: Bound action parameter -> its Python argument name.
        self.scalars = dict(scalars)
        self._locals = 0

    def local(self) -> str:
        self._locals += 1
        return f"{self.prefix}_{self._locals}"


class _SourceGen:
    """Generates the ``compile()``-able source of a whole pipeline: one
    function per active stage, ``_fast_run`` as their concatenation, and
    a function per applied table and per declared action."""

    def __init__(self, lowering: _Lowering, masks: dict):
        self.low = lowering
        self.masks = masks
        self.ns: dict[str, object] = {"SimulationError": SimulationError}
        self._bound: dict[tuple, str] = {}   # (id(obj), attr) -> name
        self.defs: list[str] = []            # table and action functions
        self._tables: set[str] = set()

    def _bind(self, obj, attr: str = "") -> str:
        """The generated module's name for ``obj`` (or ``obj.attr``)."""
        key = (id(obj), attr)
        name = self._bound.get(key)
        if name is None:
            hint = attr or getattr(obj, "__name__", type(obj).__name__)
            name = self._bound[key] = f"_{hint.strip('_')}{len(self._bound)}"
            self.ns[name] = getattr(obj, attr) if attr else obj
        return name

    def _raise(self, message: str) -> str:
        return f"{self._bind(_raise)}({message!r})"

    # -- expressions -----------------------------------------------------------
    def expr(self, expr: ast.Expr, sc: _Scope) -> str:
        """Emit a Python expression evaluating ``expr`` for one packet."""
        try:
            return repr(_fold(expr, self.low.consts, sc.scalars))
        except _NotStatic:
            pass
        if isinstance(expr, ast.FloatLit):
            return self._raise(
                "float literals cannot appear in data-plane code")
        if isinstance(expr, ast.Name) and expr.ident in sc.scalars:
            return sc.scalars[expr.ident]
        if isinstance(expr, (ast.Name, ast.Member, ast.Index)):
            key = self.low.field_key(expr, sc.scalars)
            if key is not None:
                return self._load(key, sc)
            if sc.writes is not None:
                raise _Buffered("dynamic field key")
            return (f"{self._bind(_read_key)}"
                    f"(w, phv, {self._key_source(expr, sc)})")
        if isinstance(expr, ast.UnaryOp):
            a = self.expr(expr.operand, sc)
            if expr.op in ("-", "~"):
                return f"({expr.op}{a})"
            if expr.op == "!":
                return f"(0 if {a} else 1)"
            return f"{self._bind(apply_unary)}({expr.op!r}, {a})"
        if isinstance(expr, ast.BinaryOp):
            op = expr.op
            a = self.expr(expr.left, sc)
            b = self.expr(expr.right, sc)
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
                return f"{self._bind(_div if op == '/' else _mod)}({a}, {b})"
            return f"{self._bind(apply_binary)}({op!r}, {a}, {b})"
        if isinstance(expr, ast.Ternary):
            c = self.expr(expr.cond, sc)
            t = self.expr(expr.if_true, sc)
            f = self.expr(expr.if_false, sc)
            return f"({t} if {c} else {f})"
        if isinstance(expr, ast.Call):
            return self._call(expr, sc)
        return self._raise(f"cannot evaluate {type(expr).__name__}")

    def _load(self, key: str, sc: _Scope) -> str:
        """Read a static key: the unit's own earlier write, else the
        stage-entry PHV (commits are deferred, so the live dict is it)."""
        if sc.writes is None:
            return f"w.get({key!r}, phv.get({key!r}, 0))"
        return sc.writes.get(key) or f"phv.get({key!r}, 0)"

    def _key_source(self, expr: ast.Expr, sc: _Scope) -> str:
        """Source computing a field key whose index varies per packet."""
        if not isinstance(expr, ast.Index):
            return repr(pretty_expr(expr))
        return (f"{self._key_source(expr.base, sc)} + '[' + "
                f"str({self.expr(expr.index, sc)}) + ']'")

    def _call(self, call: ast.Call, sc: _Scope) -> str:
        func = call.func
        if isinstance(func, ast.Name) and func.ident in ("min", "max"):
            values = "".join(f"{self.expr(a, sc)}, " for a in call.args)
            return f"{func.ident}(({values}))"
        if not isinstance(func, ast.Name) or func.ident != "hash":
            return self._raise(f"cannot evaluate call {pretty_expr(call)}")
        if not call.args:
            return self._raise("hash() needs a seed argument")
        values = [self.expr(a, sc) for a in call.args[1:]]
        try:
            seed = _fold(call.args[0], self.low.consts, sc.scalars)
        except _NotStatic:
            fn = (f"{self._bind(self.low.hash_fn)}"
                  f"({self.expr(call.args[0], sc)})")
        else:
            fast = self.low.fast_hash(seed)
            if fast is not None and len(values) == 1:
                return f"{self._bind(fast)}({values[0]})"
            fn = self._bind(self.low.hash_fn(seed))
        return f"{fn}({', '.join(values + [f'width={_HASH_WIDTH}'])})"

    # -- statements ------------------------------------------------------------
    def _place(self, target: ast.Expr, sc: _Scope) -> tuple[list[str], str]:
        """Where a write to ``target`` goes: (lines to run first, the
        assignable Python expression)."""
        key = self.low.field_key(target, sc.scalars)
        if sc.writes is None:
            if key is not None:
                return [], f"w[{key!r}]"
            var = sc.local()
            return [f"{var} = {self._key_source(target, sc)}"], f"w[{var}]"
        if key is None:
            raise _Buffered("dynamic field key")
        if key not in self.masks:
            raise _Buffered("write to a field the PHV never allocated")
        if key not in sc.writes:
            sc.writes[key] = sc.local()
        return [], sc.writes[key]

    def _method(self, base: ast.Expr, method: str, sc: _Scope) -> str:
        """Source of a register reference's ``method``: pre-bound when
        the reference is static, else resolved — and failing, as in the
        interpreter — per packet."""
        array = self.low.register_array(base, sc.scalars)
        if array is not None:
            return self._bind(array, method)
        if isinstance(base, ast.Name):
            instance = repr(f"{base.ident}[0]")
        elif isinstance(base, ast.Index) and isinstance(base.base, ast.Name):
            instance = (f"{base.base.ident + '['!r} + "
                        f"str({self.expr(base.index, sc)}) + ']'")
        else:
            return self._raise(
                f"bad register reference: {pretty_expr(base)}")
        return f"{self._bind(self.low.registers, 'get')}({instance}).{method}"

    def stmt(self, stmt: ast.Stmt, sc: _Scope) -> list[str]:
        """Emit one statement as Python lines."""
        if isinstance(stmt, ast.Assign):
            value = self.expr(stmt.value, sc)
            pre, place = self._place(stmt.target, sc)
            return pre + [f"{place} = {value}"]
        if not (isinstance(stmt, ast.CallStmt)
                and isinstance(stmt.call.func, ast.Member)):
            return [self._raise(
                f"cannot execute {type(stmt).__name__} in a unit body")]
        call, func = stmt.call, stmt.call.func
        if func.name == "apply" and isinstance(func.base, ast.Name):
            return [self._apply(func.base.ident, sc)]
        if func.name not in _REG_METHODS:
            return [self._raise(f"unknown register method {func.name!r}")]
        has_dest = _REG_METHODS[func.name] is not None
        values = [self.expr(a, sc)
                  for a in (call.args[1:] if has_dest else call.args)]
        pre, place = self._place(call.args[0], sc) if has_dest else ([], "")
        method = {"add_read": "add",
                  "cond_add_read": "cond_add"}.get(func.name, func.name)
        array = self.low.register_array(func.base, sc.scalars)
        if method == "add" and type(array) is RegisterArray:
            # The counter increment dominates sketch workloads; open-code
            # it (same read-add-write as RegisterArray.add, literal mask
            # and modulo) instead of paying two calls per packet.
            data, slot = self._bind(array, "_data"), sc.local()
            update = f"(int({data}[{slot}]) + ({values[1]})) & {array.mask}"
            pre.append(f"{slot} = ({values[0]}) % {array.cells}")
            if has_dest:
                return pre + [f"{place} = {update}",
                              f"{data}[{slot}] = {place}"]
            return pre + [f"{data}[{slot}] = {update}"]
        if method == "cond_add":
            values[1] = f"bool({values[1]})"
        result = f"{self._method(func.base, method, sc)}({', '.join(values)})"
        return pre + [f"{place} = {result}" if has_dest else result]

    # -- tables ----------------------------------------------------------------
    def _apply(self, name: str, sc: _Scope) -> str:
        """A table apply: a call into the table's generated function
        (emitted on first use)."""
        if sc.writes is not None:
            raise _Buffered("table apply")
        if name not in self._tables:
            self._tables.add(name)
            table = self.low.tables.get(name)  # unknown: KeyError per packet
            keys = ", ".join(self._load(key, sc)
                             for key in (table.key_fields if table is not None
                                         else ()))
            self.defs.append(_TABLE_SOURCE.format(
                name=name, keys=keys, tables=self._bind(self.low.tables)))
        return f"_t_{name}(phv, w, hits)"

    def definitions(self) -> list[str]:
        """Every table function the stages call plus, once any table is
        applied, a function per declared action (an entry may name any)
        and the ``_A`` map the table functions dispatch through."""
        if not self._tables:
            return self.defs
        entries = []
        for name, decl in self.low.actions.items():
            params = [f"a{pos}" for pos in range(len(decl.params))]
            sc = _Scope("v", None, zip((p.name for p in decl.params), params))
            body = [line for s in decl.body.stmts for line in self.stmt(s, sc)]
            self.defs.append(
                f"def _a_{name}({', '.join(['phv', 'w', 'hits'] + params)}):")
            self.defs.extend(f"    {line}" for line in body or ["pass"])
            entries.append(f"{name!r}: ({len(params)}, _a_{name})")
        return self.defs + [f"_A = {{{', '.join(entries)}}}"]

    # -- units and stages ------------------------------------------------------
    def _unit(self, inst, sc: _Scope) -> list[str]:
        if inst.table is not None:
            return [self._apply(inst.table, sc)]
        return [line for s in inst.body for line in self.stmt(s, sc)]

    def _straight_line(self, units) -> list[str]:
        """All bodies, then all commits (stage-entry read semantics);
        raises :class:`_Buffered` when the form does not apply."""
        bodies: list[str] = []
        commits: list[str] = []
        written: set[str] = set()
        for uidx, unit in enumerate(units):
            sc = _Scope(f"u{uidx}", {})
            inst = unit.instance
            guard = "" if inst.guard is None else self.expr(inst.guard, sc)
            body = self._unit(inst, sc)
            if written & sc.writes.keys():
                raise _Buffered("units with overlapping write-sets")
            written |= sc.writes.keys()
            commit = [f"phv[{key!r}] = {var} & {self.masks[key]}"
                      for key, var in sc.writes.items()]
            if guard and body:
                bodies += [f"u{uidx}_ran = 1 if {guard} else 0",
                           f"if u{uidx}_ran:"]
                body = [f"    {line}" for line in body]
                if commit:
                    commits.append(f"if u{uidx}_ran:")
                    commit = [f"    {line}" for line in commit]
            bodies.extend(body)
            commits.extend(commit)
        return bodies + commits

    def _buffered(self, stage: int, units) -> list[str]:
        """Per unit: a write dict, the guard, the steps, a conflict-
        checked merge; one commit at stage exit."""
        lines = ["c = {}; o = {}"]
        for uidx, unit in enumerate(units):
            sc = _Scope(f"u{uidx}", None)
            inst = unit.instance
            body = self._unit(inst, sc)
            body.append(f"{self._bind(_merge)}"
                        f"(c, o, w, {unit.label!r}, {stage})")
            lines.append("w = {}")
            if inst.guard is not None:
                lines.append(f"if {self.expr(inst.guard, sc)}:")
                body = [f"    {line}" for line in body]
            lines.extend(body)
        lines.append(
            f"{self._bind(_commit)}(phv, c, {self._bind(self.masks)})")
        return lines

    def stage(self, stage: int, units) -> tuple[list[str], str]:
        """One stage's lines and, when buffered, the reason."""
        try:
            lines, reason = self._straight_line(units), ""
        except _Buffered as exc:
            lines, reason = self._buffered(stage, units), str(exc)
        return [f"# stage {stage}"] + lines, reason


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _function(name: str, lines: list[str]) -> list[str]:
    return [f"def {name}(phv, hits):",
            *(f"    {line}" for line in lines), "    pass"]


def build_plan(pipeline) -> PipelinePlan:
    """Lower a pipeline's placed program into a :class:`PipelinePlan`.

    Called once from ``Pipeline.__init__`` (engines ``"compiled"`` and
    ``"vector"``); the generated code shares the pipeline's register
    file, tables, and hash-function cache, so control-plane mutations
    (table entries, register writes) are visible to it with no
    re-lowering.
    """
    masks = pipeline.phv_layout.width_masks()
    lowering = _Lowering(pipeline)
    gen = _SourceGen(lowering, masks)
    run_lines: list[str] = []
    stage_defs: list[str] = []
    built = []
    for stage, units in enumerate(pipeline._stage_units):
        if units:
            lines, reason = gen.stage(stage, units)
            run_lines += lines
            stage_defs += _function(f"_stage_{stage}", lines)
            built.append((stage, units, reason))
    source = "\n".join(_function("_fast_run", run_lines) + stage_defs
                       + gen.definitions())
    namespace = dict(gen.ns)
    exec(compile(source, "<pisa-execution-plan>", "exec"), namespace)
    stages = [
        StagePlan(
            stage=stage,
            units=tuple(unit.label for unit in units),
            reads=frozenset().union(*(u.instance.reads for u in units)),
            writes=frozenset().union(*(u.instance.writes for u in units)),
            run=namespace[f"_stage_{stage}"],
            buffered=reason,
        )
        for stage, units, reason in built
    ]
    return PipelinePlan(stages=stages, masks=masks, lowering=lowering,
                        fast_run=namespace["_fast_run"], fast_source=source)
