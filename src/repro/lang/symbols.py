"""Symbol resolution and semantic checks for P4All programs.

After parsing, :func:`check_program` validates the program and returns a
:class:`ProgramInfo` summary used by the analysis and compiler layers:

* symbolic values are declared once and referenced consistently;
* register/metadata array extents are static expressions over literals,
  ``const`` values, and symbolics;
* loops are bounded by static expressions and bodies use the loop index
  consistently (elastic arrays indexed by the loop variable);
* action calls match declared arity and iteration-parameter shape;
* every applied control/table/action exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .errors import SemanticError

__all__ = ["ModuleNamespace", "ProgramInfo", "check_program", "eval_static",
           "StaticEnv"]

StaticEnv = dict[str, int]


def eval_static(expr: ast.Expr, env: StaticEnv, source: str | None = None) -> int:
    """Evaluate a compile-time integer expression.

    ``env`` supplies values for names (consts and, at layout time, chosen
    symbolics). Raises :class:`SemanticError` for anything non-static.
    """
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.FloatLit):
        # Floats appear only in utility functions; static extents stay ints.
        return expr.value  # type: ignore[return-value]
    if isinstance(expr, ast.BoolLit):
        return int(expr.value)
    if isinstance(expr, ast.Name):
        if expr.ident in env:
            return env[expr.ident]
        raise SemanticError(
            f"'{expr.ident}' is not a compile-time constant here", expr.loc, source
        )
    if isinstance(expr, ast.UnaryOp):
        val = eval_static(expr.operand, env, source)
        if expr.op == "-":
            return -val
        if expr.op == "!":
            return int(not val)
        if expr.op == "~":
            return ~val
    if isinstance(expr, ast.BinaryOp):
        left = eval_static(expr.left, env, source)
        right = eval_static(expr.right, env, source)
        ops = {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "*": lambda: left * right,
            "/": lambda: left // right,
            "%": lambda: left % right,
            "<<": lambda: left << right,
            ">>": lambda: left >> right,
            "&": lambda: left & right,
            "|": lambda: left | right,
            "^": lambda: left ^ right,
            "==": lambda: int(left == right),
            "!=": lambda: int(left != right),
            "<": lambda: int(left < right),
            ">": lambda: int(left > right),
            "<=": lambda: int(left <= right),
            ">=": lambda: int(left >= right),
            "&&": lambda: int(bool(left) and bool(right)),
            "||": lambda: int(bool(left) or bool(right)),
        }
        if expr.op in ops:
            try:
                return ops[expr.op]()
            except ZeroDivisionError:
                raise SemanticError("division by zero in static expression",
                                    expr.loc, source) from None
    if isinstance(expr, ast.Ternary):
        cond = eval_static(expr.cond, env, source)
        branch = expr.if_true if cond else expr.if_false
        return eval_static(branch, env, source)
    raise SemanticError(
        f"expression is not a compile-time constant ({type(expr).__name__})",
        getattr(expr, "loc", None),
        source,
    )


def static_names(expr: ast.Expr) -> set[str]:
    """All bare names referenced in a static expression."""
    return {n.ident for n in ast.walk(expr) if isinstance(n, ast.Name)}


@dataclass
class MetadataField:
    """A field of the metadata struct; elastic when ``array_size`` set."""

    name: str
    width: int
    array_size: ast.Expr | None = None

    @property
    def is_elastic(self) -> bool:
        return self.array_size is not None


@dataclass
class RegisterInfo:
    """A register declaration plus derived facts."""

    decl: ast.RegisterDecl
    cell_bits: int

    @property
    def name(self) -> str:
        return self.decl.name

    @property
    def is_elastic_count(self) -> bool:
        """True when the number of register arrays is symbolic."""
        return self.decl.count is not None and not isinstance(self.decl.count, ast.IntLit)

    @property
    def is_elastic_size(self) -> bool:
        """True when the per-array cell count is symbolic."""
        return not isinstance(self.decl.size, ast.IntLit)


@dataclass
class ModuleNamespace:
    """Which module owns each linked name.

    Attached to :class:`ProgramInfo` by the linker so downstream layers
    (layout, report, telemetry) can attribute stages, memory, and ALUs
    back to the module that declared them. App-level glue (routing
    tables, extra declarations) is owned by the pseudo-module
    ``"(app)"``, which is *not* listed in :attr:`modules`.
    """

    modules: list[str] = field(default_factory=list)
    symbolics: dict[str, str] = field(default_factory=dict)
    registers: dict[str, str] = field(default_factory=dict)
    actions: dict[str, str] = field(default_factory=dict)
    tables: dict[str, str] = field(default_factory=dict)
    controls: dict[str, str] = field(default_factory=dict)
    fields: dict[str, str] = field(default_factory=dict)
    consts: dict[str, str] = field(default_factory=dict)


@dataclass
class ProgramInfo:
    """Symbol tables and derived facts for one checked program."""

    program: ast.Program
    symbolics: list[str] = field(default_factory=list)
    consts: StaticEnv = field(default_factory=dict)
    registers: dict[str, RegisterInfo] = field(default_factory=dict)
    actions: dict[str, ast.ActionDecl] = field(default_factory=dict)
    tables: dict[str, ast.TableDecl] = field(default_factory=dict)
    controls: dict[str, ast.ControlDecl] = field(default_factory=dict)
    metadata: dict[str, MetadataField] = field(default_factory=dict)
    header_fields: dict[str, int] = field(default_factory=dict)
    #: module ownership map when the program came from the linker
    namespace: "ModuleNamespace | None" = None

    def metadata_fixed_bits(self) -> int:
        """PHV bits of inelastic metadata (the paper's ``P_fixed``)."""
        return sum(f.width for f in self.metadata.values() if not f.is_elastic)


_BUILTIN_FUNCS = {"hash", "min", "max"}
# Register methods: name -> (arity, description). The first argument of
# 'read' and 'add_read' is an lvalue destination.
REGISTER_METHODS = {
    "read": 2,       # read(dst, idx)
    "write": 2,      # write(idx, value)
    "add": 2,        # add(idx, amount)
    "add_read": 3,   # add_read(dst, idx, amount) — increment then read
    "max_update": 2, # max_update(idx, value)
    "min_update": 2, # min_update(idx, value)
    "swap": 3,       # swap(dst, idx, value) — read old value, write new
    "cond_add": 3,   # cond_add(idx, cond, amount) — predicated increment
    "cond_add_read": 4,  # cond_add_read(dst, idx, cond, amount) — predicated
                         # increment returning the (possibly updated) value
}


class _Checker:
    def __init__(self, program: ast.Program):
        self.program = program
        self.source = program.source or None
        self.info = ProgramInfo(program=program)

    def run(self) -> ProgramInfo:
        self._collect_symbolics_and_consts()
        self._collect_types()
        self._collect_registers()
        self._collect_actions_tables_controls()
        self._check_static_extents()
        self._check_bodies()
        self._check_assumes_and_optimize()
        return self.info

    # -- collection passes --------------------------------------------------
    def _collect_symbolics_and_consts(self) -> None:
        for decl in self.program.decls:
            if isinstance(decl, ast.SymbolicDecl):
                if decl.name in self.info.symbolics:
                    raise SemanticError(
                        f"symbolic value '{decl.name}' declared twice", decl.loc, self.source
                    )
                self.info.symbolics.append(decl.name)
        for decl in self.program.decls:
            if isinstance(decl, ast.ConstDecl):
                if decl.name in self.info.consts:
                    raise SemanticError(
                        f"constant '{decl.name}' declared twice", decl.loc, self.source
                    )
                self.info.consts[decl.name] = eval_static(
                    decl.value, self.info.consts, self.source
                )

    def _collect_types(self) -> None:
        for struct in self.program.structs():
            is_meta = struct.name in ("metadata", "metadata_t", "meta_t")
            for fd in struct.fields:
                width = self._field_width(fd)
                if is_meta:
                    if fd.name in self.info.metadata:
                        raise SemanticError(
                            f"metadata field '{fd.name}' declared twice", fd.loc, self.source
                        )
                    self.info.metadata[fd.name] = MetadataField(
                        name=fd.name, width=width, array_size=fd.array_size
                    )
        for header in self.program.headers():
            for fd in header.fields:
                if fd.array_size is not None:
                    raise SemanticError(
                        "header fields cannot be elastic arrays (headers are on the wire)",
                        fd.loc,
                        self.source,
                    )
                self.info.header_fields[f"{header.name}.{fd.name}"] = self._field_width(fd)

    def _field_width(self, fd: ast.FieldDecl) -> int:
        if isinstance(fd.ty, ast.BitType):
            return fd.ty.width
        if isinstance(fd.ty, ast.BoolType):
            return 1
        raise SemanticError(
            f"field '{fd.name}' must have a bit<N> or bool type", fd.loc, self.source
        )

    def _collect_registers(self) -> None:
        for reg in self.program.registers():
            if reg.name in self.info.registers:
                raise SemanticError(
                    f"register '{reg.name}' declared twice", reg.loc, self.source
                )
            if not isinstance(reg.cell_type, ast.BitType):
                raise SemanticError(
                    f"register '{reg.name}' cells must be bit<N>", reg.loc, self.source
                )
            self.info.registers[reg.name] = RegisterInfo(
                decl=reg, cell_bits=reg.cell_type.width
            )

    def _collect_actions_tables_controls(self) -> None:
        for action in self.program.actions():
            if action.name in self.info.actions:
                raise SemanticError(
                    f"action '{action.name}' declared twice", action.loc, self.source
                )
            self.info.actions[action.name] = action
        for table in self.program.tables():
            if table.name in self.info.tables:
                raise SemanticError(
                    f"table '{table.name}' declared twice", table.loc, self.source
                )
            self.info.tables[table.name] = table
        for ctrl in self.program.controls():
            if ctrl.name in self.info.controls:
                raise SemanticError(
                    f"control '{ctrl.name}' declared twice", ctrl.loc, self.source
                )
            self.info.controls[ctrl.name] = ctrl
        for table in self.info.tables.values():
            for action_name in table.actions:
                if action_name not in self.info.actions and action_name != "NoAction":
                    raise SemanticError(
                        f"table '{table.name}' references unknown action '{action_name}'",
                        table.loc,
                        self.source,
                    )

    # -- validation passes --------------------------------------------------
    def _static_ok(self, expr: ast.Expr) -> None:
        """Extents/bounds may reference literals, consts, and symbolics."""
        allowed = set(self.info.symbolics) | set(self.info.consts)
        for name in static_names(expr):
            if name not in allowed:
                raise SemanticError(
                    f"'{name}' is neither a constant nor a symbolic value",
                    expr.loc,
                    self.source,
                )

    def _check_static_extents(self) -> None:
        for reg in self.info.registers.values():
            self._static_ok(reg.decl.size)
            if reg.decl.count is not None:
                self._static_ok(reg.decl.count)
        for fd in self.info.metadata.values():
            if fd.array_size is not None:
                self._static_ok(fd.array_size)

    def _check_bodies(self) -> None:
        for action in self.info.actions.values():
            scope = {p.name for p in action.params}
            if action.iter_param:
                scope.add(action.iter_param)
            self._check_block(action.body, scope, in_action=True)
        for ctrl in self.info.controls.values():
            scope = {p.name for p in ctrl.params}
            self._check_block(ctrl.apply, scope, in_action=False)

    def _check_block(self, block: ast.Block, scope: set[str], in_action: bool) -> None:
        for stmt in block.stmts:
            self._check_stmt(stmt, scope, in_action)

    def _check_stmt(self, stmt: ast.Stmt, scope: set[str], in_action: bool) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, scope, in_action)
        elif isinstance(stmt, ast.Assign):
            self._check_lvalue(stmt.target, scope)
            self._check_expr(stmt.value, scope)
        elif isinstance(stmt, ast.IfStmt):
            self._check_expr(stmt.cond, scope)
            self._check_block(stmt.then_block, scope, in_action)
            if stmt.else_block is not None:
                self._check_block(stmt.else_block, scope, in_action)
        elif isinstance(stmt, ast.ForStmt):
            if in_action:
                raise SemanticError(
                    "loops are not allowed inside actions", stmt.loc, self.source
                )
            self._static_ok(stmt.bound)
            self._check_block(stmt.body, scope | {stmt.var}, in_action)
        elif isinstance(stmt, ast.CallStmt):
            self._check_call_stmt(stmt.call, scope)
        else:
            raise SemanticError(
                f"unsupported statement {type(stmt).__name__}", getattr(stmt, "loc", None),
                self.source,
            )

    def _check_call_stmt(self, call: ast.Call, scope: set[str]) -> None:
        func = call.func
        # control.apply(...) / table.apply()
        if isinstance(func, ast.Member) and func.name == "apply":
            if isinstance(func.base, ast.Name):
                target = func.base.ident
                if target in self.info.controls or target in self.info.tables:
                    for arg in call.args:
                        self._check_expr(arg, scope)
                    return
                raise SemanticError(
                    f"'{target}' is not a control or table", func.loc, self.source
                )
            raise SemanticError("apply() target must be a name", func.loc, self.source)
        # register method calls: reg.read(...), reg.write(...), ...
        if isinstance(func, ast.Member) and isinstance(func.base, ast.Name) \
                and func.base.ident in self.info.registers:
            self._check_register_call(call, func, scope)
            return
        # reg[i].method(...) — elastic register instance
        if isinstance(func, ast.Member) and isinstance(func.base, ast.Index) \
                and isinstance(func.base.base, ast.Name) \
                and func.base.base.ident in self.info.registers:
            self._check_register_call(call, func, scope, indexed=True)
            return
        # plain action invocation: act(args) or act(args)[i]
        if isinstance(func, ast.Name):
            action = self.info.actions.get(func.ident)
            if action is None:
                raise SemanticError(
                    f"call to unknown action '{func.ident}'", func.loc, self.source
                )
            if len(call.args) != len(action.params):
                raise SemanticError(
                    f"action '{action.name}' takes {len(action.params)} argument(s), "
                    f"got {len(call.args)}",
                    call.loc,
                    self.source,
                )
            if action.iter_param and call.iter_index is None:
                raise SemanticError(
                    f"action '{action.name}' needs an iteration index: "
                    f"{action.name}(...)[i]",
                    call.loc,
                    self.source,
                )
            if not action.iter_param and call.iter_index is not None:
                raise SemanticError(
                    f"action '{action.name}' takes no iteration index", call.loc, self.source
                )
            for arg in call.args:
                self._check_expr(arg, scope)
            if call.iter_index is not None:
                self._check_expr(call.iter_index, scope)
            return
        raise SemanticError("unsupported call statement", call.loc, self.source)

    def _check_register_call(
        self, call: ast.Call, func: ast.Member, scope: set[str], indexed: bool = False
    ) -> None:
        method = func.name
        if method not in REGISTER_METHODS:
            raise SemanticError(
                f"unknown register method '{method}' "
                f"(expected one of {sorted(REGISTER_METHODS)})",
                func.loc,
                self.source,
            )
        expected = REGISTER_METHODS[method]
        if len(call.args) != expected:
            raise SemanticError(
                f"register method '{method}' takes {expected} argument(s), "
                f"got {len(call.args)}",
                call.loc,
                self.source,
            )
        if indexed:
            self._check_expr(func.base.index, scope)  # type: ignore[union-attr]
        if method in ("read", "add_read", "swap", "cond_add_read"):
            self._check_lvalue(call.args[0], scope)
            for arg in call.args[1:]:
                self._check_expr(arg, scope)
        else:
            for arg in call.args:
                self._check_expr(arg, scope)

    def _check_lvalue(self, expr: ast.Expr, scope: set[str]) -> None:
        if isinstance(expr, ast.Name):
            return  # locals/params — accept
        if isinstance(expr, ast.Member):
            self._check_expr(expr, scope)
            return
        if isinstance(expr, ast.Index):
            self._check_expr(expr.base, scope)
            self._check_expr(expr.index, scope)
            return
        raise SemanticError(
            "assignment target must be a variable, field, or array element",
            getattr(expr, "loc", None),
            self.source,
        )

    def _check_expr(self, expr: ast.Expr, scope: set[str]) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                fn = node.func
                if isinstance(fn, ast.Name) and fn.ident not in _BUILTIN_FUNCS:
                    raise SemanticError(
                        f"unknown function '{fn.ident}' in expression "
                        f"(builtins: {sorted(_BUILTIN_FUNCS)})",
                        fn.loc,
                        self.source,
                    )

    def _check_assumes_and_optimize(self) -> None:
        allowed = set(self.info.symbolics) | set(self.info.consts)
        for assume in self.program.assumes():
            for name in static_names(assume.condition):
                if name not in allowed:
                    raise SemanticError(
                        f"assume references '{name}', which is not a symbolic or constant",
                        assume.loc,
                        self.source,
                    )
        opt = self.program.optimize()
        if opt is not None:
            for name in _utility_names(opt.utility):
                if name not in allowed:
                    raise SemanticError(
                        f"utility function references '{name}', "
                        "which is not a symbolic or constant",
                        opt.loc,
                        self.source,
                    )


def _utility_names(expr: ast.Expr) -> set[str]:
    """:func:`static_names` of a utility, less the callee of each
    ``min(...)``: the one function a utility may call (the layout
    linearises it, :mod:`repro.core.utility`)."""
    if isinstance(expr, ast.Name):
        return {expr.ident}
    children = expr.children()
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
            and expr.func.ident == "min":
        children = expr.args
    return set().union(*map(_utility_names, children))


def check_program(program: ast.Program) -> ProgramInfo:
    """Run all semantic checks; returns the symbol summary on success."""
    return _Checker(program).run()
