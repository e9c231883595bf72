"""Mid-level IR: elaborating a checked P4All program into placement units.

The compiler places *atomic actions* into pipeline stages. This module
flattens a program's ingress control (inlining nested control ``apply``
calls and action bodies) into an ordered list of **segments**:

* :class:`InelasticSegment` — a single placement unit that always exists
  (constraint #17's ``a_ne`` actions);
* :class:`ElasticSegment` — a loop body governed by a symbolic value,
  expanded by :func:`instantiate` into per-iteration
  :class:`ActionInstance` units.

Each :class:`ActionInstance` carries everything the dependency analysis,
the ILP, the code generator, and the pipeline interpreter need: the
substituted body statements, the guard (conjunction of enclosing ``if``
conditions), read/write field sets, accessed register instances, and the
:class:`~repro.pisa.resources.ActionCost` summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional

from ..lang import ast
from ..lang.errors import SemanticError
from ..lang.pretty import pretty_expr
from ..lang.symbols import ProgramInfo, eval_static
from ..pisa.resources import ActionCost

__all__ = [
    "ActionInstance",
    "UnitTemplate",
    "InelasticSegment",
    "ElasticSegment",
    "ProgramIR",
    "build_ir",
    "instantiate",
    "instantiate_iteration",
    "module_of_instance",
    "substitute",
    "field_key",
    "UpdateKind",
]


# ---------------------------------------------------------------------------
# Expression utilities
# ---------------------------------------------------------------------------


def substitute(node: ast.Node, bindings: dict[str, ast.Expr]) -> ast.Node:
    """``node`` with ``Name`` leaves replaced per ``bindings``.

    The trees are shared, never copied: a subtree with no bound name
    comes back as the very object passed in, each bound name becomes
    its binding itself, and only the nodes on the path above a bound
    name are cloned (:func:`~repro.lang.ast.rebuild`). So nothing may
    mutate the result, its bindings or ``node`` — no consumer of the IR
    does (:func:`instantiate`).
    """
    if isinstance(node, ast.Name):
        return bindings.get(node.ident, node)
    return ast.rebuild(node, substitute, bindings)


def _fold(expr: ast.Expr, consts: dict[str, int]) -> ast.Expr:
    """Constant-fold an expression as far as possible (for indices)."""
    try:
        return ast.IntLit(value=eval_static(expr, consts))
    except SemanticError:
        return expr


def field_key(expr: ast.Expr, consts: dict[str, int] | None = None) -> str:
    """Canonical PHV key for an lvalue expression.

    ``meta.count[2]`` → ``"meta.count[2]"``; indices are constant-folded
    first so that all layers agree on names.
    """
    if isinstance(expr, ast.Index):
        base = field_key(expr.base, consts)
        idx = _fold(expr.index, consts or {})
        return f"{base}[{pretty_expr(idx)}]"
    return pretty_expr(expr)


# ---------------------------------------------------------------------------
# Update-kind classification (for exclusion edges)
# ---------------------------------------------------------------------------


class UpdateKind:
    """Kinds of commutative writes (two same-kind updates commute)."""

    ADD = "add"
    MIN = "min"
    MAX = "max"
    OR = "or"
    AND = "and"
    PLAIN = "plain"  # non-commutative overwrite


def _classify_assign(target_key: str, value: ast.Expr, guard: ast.Expr | None,
                     consts: dict[str, int]) -> str:
    """Classify the write ``target = value`` (under ``guard``) for commutativity.

    Recognized commutative shapes:

    * ``f = f + e`` / ``f = e + f``                      → ADD
    * ``f = f | e`` / ``f = f & e``                      → OR / AND
    * ``f = min(f, e)`` / ``f = max(f, e)``              → MIN / MAX
    * ``if (e < f) f = e`` (guarded minimum)             → MIN
    * ``if (e > f) f = e`` (guarded maximum)             → MAX
    """
    def is_target(e: ast.Expr) -> bool:
        return field_key(e, consts) == target_key

    if isinstance(value, ast.BinaryOp) and value.op in ("+", "|", "&"):
        kind = {"+": UpdateKind.ADD, "|": UpdateKind.OR, "&": UpdateKind.AND}[value.op]
        if is_target(value.left) or is_target(value.right):
            return kind
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
            and value.func.ident in ("min", "max") and len(value.args) == 2:
        if is_target(value.args[0]) or is_target(value.args[1]):
            return UpdateKind.MIN if value.func.ident == "min" else UpdateKind.MAX
    if guard is not None and isinstance(guard, ast.BinaryOp):
        # Guarded min/max: if (candidate < f) f = candidate;
        cand_key = field_key(value, consts)
        left, right, op = guard.left, guard.right, guard.op

        def keys_match(a, b):
            return field_key(a, consts) == cand_key and is_target(b)

        if op in ("<", "<=") and keys_match(left, right):
            return UpdateKind.MIN
        if op in (">", ">=") and keys_match(left, right):
            return UpdateKind.MAX
        if op in ("<", "<=") and keys_match(right, left):
            return UpdateKind.MAX
        if op in (">", ">=") and keys_match(right, left):
            return UpdateKind.MIN
    return UpdateKind.PLAIN


# ---------------------------------------------------------------------------
# Placement units
# ---------------------------------------------------------------------------


@dataclass
class ActionInstance:
    """One atomic placement unit after unrolling.

    ``symbolic``/``iteration`` identify the elastic loop iteration this
    unit came from (both ``None`` for inelastic units). ``guard`` is the
    conjunction of enclosing ``if`` conditions, already specialized to the
    iteration. ``commutative`` maps written fields to their update kind.
    ``registers`` holds ``(family, index)`` pairs of accessed register
    instances.
    """

    uid: int
    name: str
    body: list[ast.Stmt]
    symbolic: Optional[str] = None
    iteration: Optional[int] = None
    guard: Optional[ast.Expr] = None
    reads: frozenset = frozenset()
    writes: frozenset = frozenset()
    registers: frozenset = frozenset()
    cost: ActionCost = ActionCost()
    commutative: dict = dc_field(default_factory=dict)
    source_order: int = 0
    table: Optional[str] = None  # set when this unit is a table apply

    @property
    def is_elastic(self) -> bool:
        return self.symbolic is not None

    @property
    def label(self) -> str:
        """Display name: ``incr[2]`` for iteration 2 of action ``incr``."""
        if self.iteration is None:
            return self.name
        return f"{self.name}[{self.iteration}]"

    def __repr__(self) -> str:
        return f"ActionInstance({self.label})"


@dataclass
class UnitTemplate:
    """Pre-instantiation form of a placement unit inside a loop body."""

    name: str
    body: list[ast.Stmt]          # loop variable still symbolic
    guard: Optional[ast.Expr]
    loop_var: Optional[str]
    table: Optional[str] = None


@dataclass
class InelasticSegment:
    template: UnitTemplate


@dataclass
class ElasticSegment:
    symbolic: str
    templates: list[UnitTemplate]


@dataclass
class _Expansion:
    """One template at one iteration: the substituted body and guard and
    the effects :class:`_EffectCollector` reads off them. Shared,
    read-only, by every instance :func:`instantiate` makes of it."""

    body: list
    guard: Optional[ast.Expr]
    reads: frozenset
    writes: frozenset
    registers: frozenset
    cost: ActionCost
    commutative: dict


@dataclass
class ProgramIR:
    """Elaborated program: ordered segments plus the symbol summary."""

    info: ProgramInfo
    segments: list  # InelasticSegment | ElasticSegment
    entry: str      # name of the ingress control that was elaborated
    #: (segment, template, iteration) positions → :class:`_Expansion`,
    #: filled by :func:`instantiate`. An instance depends on its
    #: template, its iteration and ``info`` alone (the loop variable is
    #: the only name substituted, by a literal), so each is expanded
    #: once per IR, whichever counts ask for it
    _expansions: dict = dc_field(default_factory=dict, repr=False,
                                 compare=False)

    @property
    def loop_symbolics(self) -> list[str]:
        seen: list[str] = []
        for seg in self.segments:
            if isinstance(seg, ElasticSegment) and seg.symbolic not in seen:
                seen.append(seg.symbolic)
        return seen


# ---------------------------------------------------------------------------
# Elaboration: Program AST → ProgramIR
# ---------------------------------------------------------------------------


class _Elaborator:
    def __init__(self, info: ProgramInfo, entry: str):
        self.info = info
        self.entry = entry
        self.segments: list = []
        self._anon_counter = 0

    def run(self) -> ProgramIR:
        try:
            control = self.info.controls[self.entry]
        except KeyError:
            raise SemanticError(
                f"no control named {self.entry!r} to use as the pipeline entry"
            ) from None
        self._elaborate_block(control.apply, guard=None, loop=None)
        return ProgramIR(info=self.info, segments=self.segments, entry=self.entry)

    # ``loop`` is (symbolic_name, loop_var) when inside a for.
    def _elaborate_block(self, block: ast.Block, guard, loop) -> None:
        for stmt in block.stmts:
            self._elaborate_stmt(stmt, guard, loop)

    def _conj(self, guard, cond):
        if guard is None:
            return cond
        return ast.BinaryOp(op="&&", left=guard, right=cond)

    def _elaborate_stmt(self, stmt: ast.Stmt, guard, loop) -> None:
        if isinstance(stmt, ast.Block):
            self._elaborate_block(stmt, guard, loop)
            return
        if isinstance(stmt, ast.ForStmt):
            if loop is not None:
                raise SemanticError(
                    "nested elastic loops inside one control body are elaborated "
                    "per control; hoist the inner loop into its own control",
                    stmt.loc,
                    self.info.program.source or None,
                )
            bound = stmt.bound
            # Constant-bounded loops unroll statically: each iteration is a
            # separate inelastic unit (used for fixed-depth structures such
            # as SketchLearn's per-bit levels).
            static_count = None
            if isinstance(bound, ast.IntLit):
                static_count = bound.value
            elif isinstance(bound, ast.Name) and bound.ident in self.info.consts:
                static_count = self.info.consts[bound.ident]
            if static_count is not None:
                for i in range(static_count):
                    binding = {stmt.var: ast.IntLit(value=i)}
                    for inner in stmt.body.stmts:
                        self._elaborate_stmt(substitute(inner, binding), guard, None)
                return
            if not isinstance(bound, ast.Name) or \
                    bound.ident not in self.info.symbolics:
                raise SemanticError(
                    "loop bound must be a symbolic value or a constant",
                    stmt.loc,
                    self.info.program.source or None,
                )
            segment = ElasticSegment(symbolic=bound.ident, templates=[])
            self.segments.append(segment)
            self._elaborate_loop_block(stmt.body, guard, (bound.ident, stmt.var), segment)
            return
        if isinstance(stmt, ast.IfStmt):
            self._elaborate_block(stmt.then_block, self._conj(guard, stmt.cond), loop)
            if stmt.else_block is not None:
                negated = ast.UnaryOp(op="!", operand=stmt.cond)
                self._elaborate_block(stmt.else_block, self._conj(guard, negated), loop)
            return
        if isinstance(stmt, ast.CallStmt):
            self._elaborate_call(stmt.call, guard, loop)
            return
        if isinstance(stmt, ast.Assign):
            self._emit_synthetic([stmt], guard, loop)
            return
        raise SemanticError(
            f"unsupported statement in apply block: {type(stmt).__name__}",
            getattr(stmt, "loc", None),
            self.info.program.source or None,
        )

    def _elaborate_loop_block(self, block: ast.Block, guard, loop, segment) -> None:
        """Elaborate statements inside a for body into loop templates."""
        for stmt in block.stmts:
            if isinstance(stmt, ast.IfStmt):
                self._elaborate_loop_block(
                    stmt.then_block, self._conj(guard, stmt.cond), loop, segment
                )
                if stmt.else_block is not None:
                    negated = ast.UnaryOp(op="!", operand=stmt.cond)
                    self._elaborate_loop_block(
                        stmt.else_block, self._conj(guard, negated), loop, segment
                    )
            elif isinstance(stmt, ast.Block):
                self._elaborate_loop_block(stmt, guard, loop, segment)
            elif isinstance(stmt, ast.CallStmt):
                template = self._call_template(stmt.call, guard, loop)
                segment.templates.append(template)
            elif isinstance(stmt, ast.Assign):
                segment.templates.append(
                    UnitTemplate(
                        name=self._anon_name(),
                        body=[stmt],
                        guard=guard,
                        loop_var=loop[1],
                    )
                )
            elif isinstance(stmt, ast.ForStmt):
                raise SemanticError(
                    "directly nested for-loops are not supported; "
                    "wrap the inner loop in its own control block",
                    stmt.loc,
                    self.info.program.source or None,
                )
            else:
                raise SemanticError(
                    f"unsupported statement in loop body: {type(stmt).__name__}",
                    getattr(stmt, "loc", None),
                    self.info.program.source or None,
                )

    def _anon_name(self) -> str:
        self._anon_counter += 1
        return f"op{self._anon_counter}"

    def _elaborate_call(self, call: ast.Call, guard, loop) -> None:
        func = call.func
        # Nested control application: inline its apply block.
        if isinstance(func, ast.Member) and func.name == "apply" \
                and isinstance(func.base, ast.Name) \
                and func.base.ident in self.info.controls:
            inner = self.info.controls[func.base.ident]
            self._elaborate_block(inner.apply, guard, loop)
            return
        template = self._call_template(call, guard, loop)
        if loop is None:
            self.segments.append(InelasticSegment(template=template))
        else:  # pragma: no cover - loop calls go through _elaborate_loop_block
            raise AssertionError("loop calls are handled by _elaborate_loop_block")

    def _call_template(self, call: ast.Call, guard, loop) -> UnitTemplate:
        func = call.func
        loop_var = loop[1] if loop else None
        # table.apply()
        if isinstance(func, ast.Member) and func.name == "apply" \
                and isinstance(func.base, ast.Name) \
                and func.base.ident in self.info.tables:
            table = self.info.tables[func.base.ident]
            return UnitTemplate(
                name=f"tbl_{table.name}",
                body=[ast.CallStmt(call=call)],
                guard=guard,
                loop_var=loop_var,
                table=table.name,
            )
        # nested control inside a loop
        if isinstance(func, ast.Member) and func.name == "apply" \
                and isinstance(func.base, ast.Name) \
                and func.base.ident in self.info.controls:
            raise SemanticError(
                "control.apply() inside a for-loop is not supported; "
                "call the loop inside that control instead",
                call.loc,
                self.info.program.source or None,
            )
        # register method directly in an apply block → synthetic unit
        if isinstance(func, ast.Member) and func.name in (
            "read", "write", "add", "add_read", "max_update", "min_update"
        ):
            return UnitTemplate(
                name=self._anon_name(),
                body=[ast.CallStmt(call=call)],
                guard=guard,
                loop_var=loop_var,
            )
        # action invocation — inline the body with parameters bound
        if isinstance(func, ast.Name) and func.ident in self.info.actions:
            action = self.info.actions[func.ident]
            bindings: dict[str, ast.Expr] = {
                p.name: arg for p, arg in zip(action.params, call.args)
            }
            if action.iter_param is not None:
                if call.iter_index is None:
                    raise SemanticError(
                        f"action '{action.name}' requires an iteration index",
                        call.loc,
                        self.info.program.source or None,
                    )
                bindings[action.iter_param] = call.iter_index
            body = [substitute(s, bindings) for s in action.body.stmts]
            name = action.name
            # Statically-unrolled invocations (constant-bounded loops) get a
            # distinct specialized name per concrete index.
            if loop_var is None and isinstance(call.iter_index, ast.IntLit):
                name = f"{action.name}_{call.iter_index.value}"
            return UnitTemplate(
                name=name,
                body=body,
                guard=guard,
                loop_var=loop_var,
            )
        raise SemanticError(
            f"cannot elaborate call '{pretty_expr(call)}'",
            call.loc,
            self.info.program.source or None,
        )

    def _emit_synthetic(self, stmts: list[ast.Stmt], guard, loop) -> None:
        template = UnitTemplate(
            name=self._anon_name(),
            body=list(stmts),
            guard=guard,
            loop_var=loop[1] if loop else None,
        )
        if loop is None:
            self.segments.append(InelasticSegment(template=template))


def build_ir(info: ProgramInfo, entry: str = "Ingress") -> ProgramIR:
    """Elaborate the ``entry`` control of a checked program into IR."""
    return _Elaborator(info, entry).run()


# ---------------------------------------------------------------------------
# Instantiation: templates → ActionInstances at concrete iteration counts
# ---------------------------------------------------------------------------


class _EffectCollector:
    """Extracts read/write/register sets and ALU costs from a unit body."""

    def __init__(self, info: ProgramInfo):
        self.info = info
        self.consts = info.consts
        self.reads: set[str] = set()
        self.writes: set[str] = set()
        self.registers: set[tuple[str, int]] = set()
        self.commutative: dict[str, str] = {}
        self.stateful = 0
        self.stateless = 0
        self.hashes = 0

    # -- expression reads ---------------------------------------------------
    def read_expr(self, expr: ast.Expr) -> None:
        """Add every PHV field read by ``expr`` (recursing into calls)."""
        if isinstance(expr, (ast.Member, ast.Index)):
            root = expr
            while isinstance(root, (ast.Member, ast.Index)):
                root = root.base
            if isinstance(root, ast.Name) and root.ident in self.info.registers:
                return  # a register reference, not a PHV read
            self.reads.add(field_key(expr, self.consts))
            if isinstance(expr, ast.Index):
                self.read_expr(expr.index)
            return
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and expr.func.ident == "hash":
                self.hashes += 1
            for arg in expr.args:
                self.read_expr(arg)
            return
        for child in expr.children():
            if isinstance(child, ast.Expr):
                self.read_expr(child)

    def write_field(self, target: ast.Expr, kind: str) -> None:
        key = field_key(target, self.consts)
        self.writes.add(key)
        # Keep the weakest classification if written twice.
        prior = self.commutative.get(key)
        self.commutative[key] = kind if prior in (None, kind) else UpdateKind.PLAIN
        if isinstance(target, ast.Index):
            self.read_expr(target.index)

    def register_target(self, expr: ast.Expr) -> tuple[str, int] | None:
        """Resolve ``cms[2]`` / ``bloom`` into a register instance key."""
        if isinstance(expr, ast.Name) and expr.ident in self.info.registers:
            return (expr.ident, 0)
        if isinstance(expr, ast.Index) and isinstance(expr.base, ast.Name) \
                and expr.base.ident in self.info.registers:
            return (expr.base.ident, int(eval_static(expr.index, self.consts)))
        return None

    # -- statements -----------------------------------------------------------
    def visit_stmt(self, stmt: ast.Stmt, guard: ast.Expr | None) -> None:
        if isinstance(stmt, ast.Assign):
            key = field_key(stmt.target, self.consts)
            kind = _classify_assign(key, stmt.value, guard, self.consts)
            self.write_field(stmt.target, kind)
            self.read_expr(stmt.value)
            self.stateless += 1
            return
        if isinstance(stmt, ast.CallStmt):
            self.visit_call(stmt.call)
            return
        raise SemanticError(
            f"unsupported statement in action body: {type(stmt).__name__}",
            getattr(stmt, "loc", None),
            self.info.program.source or None,
        )

    def visit_call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Member):
            reg = self.register_target(func.base)
            if reg is not None:
                self.registers.add(reg)
                self.stateful += 1
                if func.name in ("read", "add_read", "swap", "cond_add_read"):
                    self.write_field(call.args[0], UpdateKind.PLAIN)
                    for arg in call.args[1:]:
                        self.read_expr(arg)
                else:
                    for arg in call.args:
                        self.read_expr(arg)
                return
            if func.name == "apply":
                self.stateless += 1  # match/gateway work
                return
        raise SemanticError(
            f"cannot analyze call '{pretty_expr(call)}'",
            call.loc,
            self.info.program.source or None,
        )

    def visit_table(self, table_name: str) -> None:
        """A table apply reads its keys and may run any of its actions."""
        table = self.info.tables[table_name]
        for key in table.keys:
            self.read_expr(key.expr)
        for action_name in table.actions:
            action = self.info.actions.get(action_name)
            if action is None:
                continue
            for stmt in action.body.stmts:
                if isinstance(stmt, ast.Assign):
                    self.write_field(stmt.target, UpdateKind.PLAIN)
                    self.read_expr(stmt.value)
                    self.stateless += 1


def _expand(ir: ProgramIR, tpl: UnitTemplate,
            iteration: int | None) -> _Expansion:
    """``tpl`` at ``iteration`` (None: inelastic): the loop variable
    substituted, read/write/register sets, cost and commutativity."""
    bindings = {}
    if tpl.loop_var is not None and iteration is not None:
        bindings = {tpl.loop_var: ast.IntLit(value=iteration)}
    body = [substitute(s, bindings) for s in tpl.body]
    guard = substitute(tpl.guard, bindings) if tpl.guard is not None else None
    collector = _EffectCollector(ir.info)
    if guard is not None:
        collector.read_expr(guard)
    if tpl.table is not None:
        collector.visit_table(tpl.table)
    else:
        for stmt in body:
            collector.visit_stmt(stmt, guard)
    return _Expansion(
        body=body,
        guard=guard,
        reads=frozenset(collector.reads),
        writes=frozenset(collector.writes),
        registers=frozenset(collector.registers),
        cost=ActionCost(
            stateful_ops=collector.stateful,
            stateless_ops=collector.stateless,
            hash_ops=collector.hashes,
        ),
        commutative=collector.commutative,
    )


def _instance(ir: ProgramIR, key: tuple, tpl: UnitTemplate, position: int,
              symbolic: str | None = None,
              iteration: int | None = None) -> ActionInstance:
    """A fresh instance of ``tpl`` at ``iteration``, numbered ``position``
    (its ``uid`` and ``source_order``), around the IR's memoised
    expansion at ``key``."""
    exp = ir._expansions.get(key)
    if exp is None:
        exp = ir._expansions[key] = _expand(ir, tpl, iteration)
    return ActionInstance(
        uid=position,
        name=tpl.name,
        body=exp.body,
        symbolic=symbolic,
        iteration=iteration,
        guard=exp.guard,
        reads=exp.reads,
        writes=exp.writes,
        registers=exp.registers,
        cost=exp.cost,
        commutative=dict(exp.commutative),
        source_order=position,
        table=tpl.table,
    )


def instantiate(ir: ProgramIR, counts: dict[str, int]) -> list[ActionInstance]:
    """Expand all segments at the given per-symbolic iteration counts.

    Returns instances in program order. Symbolics missing from ``counts``
    default to 1 iteration (the conservative assumption of §4.2 for
    analyzing one loop at a time). Every call returns fresh instances
    (own ``uid``, ``source_order`` and ``commutative``); their statement
    and expression trees come from the IR's expansion memo and are
    shared (:func:`substitute`), so no consumer may mutate them.
    """
    out: list[ActionInstance] = []
    for s, seg in enumerate(ir.segments):
        if isinstance(seg, InelasticSegment):
            out.append(_instance(ir, (s, 0, None), seg.template, len(out)))
            continue
        for i in range(counts.get(seg.symbolic, 1)):
            for t, tpl in enumerate(seg.templates):
                out.append(_instance(ir, (s, t, i), tpl, len(out),
                                     seg.symbolic, i))
    return out


def instantiate_iteration(ir: ProgramIR, symbolic: str, iteration: int,
                          count: int) -> list[ActionInstance]:
    """Iteration ``iteration`` of every loop over ``symbolic``, in
    program order, each instance numbered as in ``instantiate(ir,
    {symbolic: count})`` (``iteration < count``). Taken one iteration at
    a time, iterations ``0 .. K-1`` are the instances of ``symbolic`` at
    K = 1 … ``count``, each pair in the same program order as there: how
    the §4.2 bound grows its dependency graph.
    """
    out: list[ActionInstance] = []
    position = 0
    for s, seg in enumerate(ir.segments):
        if isinstance(seg, InelasticSegment):
            position += 1
            continue
        width = len(seg.templates)
        if seg.symbolic != symbolic:
            position += width
            continue
        first = position + iteration * width
        for t, tpl in enumerate(seg.templates):
            out.append(_instance(ir, (s, t, iteration), tpl, first + t,
                                 symbolic, iteration))
        position += count * width
    return out


def module_of_instance(inst: ActionInstance, namespace) -> "str | None":
    """Attribute one placement unit to the linked module that owns it.

    Resolution order: the owning table, the action name (exact, then
    with a static-unroll ``_<i>`` specialization suffix stripped), the
    accessed register families, and finally the metadata fields it
    touches — taking an owner only when it is unambiguous. Returns
    ``None`` for units nothing claims (callers bucket those as app
    glue).
    """
    if namespace is None:
        return None
    if inst.table is not None and inst.table in namespace.tables:
        return namespace.tables[inst.table]
    owner = namespace.actions.get(inst.name)
    if owner is not None:
        return owner
    base, _, suffix = inst.name.rpartition("_")
    if base and suffix.isdigit():
        owner = namespace.actions.get(base)
        if owner is not None:
            return owner
    reg_owners = {
        namespace.registers[family]
        for family, _index in inst.registers
        if family in namespace.registers
    }
    if len(reg_owners) == 1:
        return reg_owners.pop()
    field_owners = set()
    for key in set(inst.reads) | set(inst.writes):
        name = key.split(".", 1)[1] if key.startswith("meta.") else key
        name = name.split("[", 1)[0]
        owner = namespace.fields.get(name)
        if owner is not None:
            field_owners.add(owner)
    if len(field_owners) == 1:
        return field_owners.pop()
    return None
