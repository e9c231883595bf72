"""Abstract syntax tree for P4All.

The AST covers the P4 subset needed by the paper's module library and
applications, plus the four P4All extensions (§3.2):

* ``symbolic int n;``               → :class:`SymbolicDecl`
* ``assume expr;``                  → :class:`AssumeDecl`
* ``optimize expr;``                → :class:`OptimizeDecl`
* symbolic-extent register/metadata arrays → :class:`RegisterDecl` /
  :class:`FieldDecl` with expression-valued extents
* ``for (i < n) { ... }``           → :class:`ForStmt`
* ``action f()[int i] { ... }``     → :class:`ActionDecl` with ``iter_param``

All nodes carry a non-comparing ``loc`` so structural equality in tests
ignores positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import SourceLocation

__all__ = [
    "Node",
    "Type",
    "BitType",
    "BoolType",
    "IntType",
    "NamedType",
    "Expr",
    "IntLit",
    "FloatLit",
    "BoolLit",
    "Name",
    "Member",
    "Index",
    "UnaryOp",
    "BinaryOp",
    "Ternary",
    "Call",
    "Stmt",
    "Block",
    "Assign",
    "IfStmt",
    "ForStmt",
    "CallStmt",
    "Decl",
    "SymbolicDecl",
    "AssumeDecl",
    "OptimizeDecl",
    "ConstDecl",
    "FieldDecl",
    "HeaderDecl",
    "StructDecl",
    "RegisterDecl",
    "Param",
    "ActionDecl",
    "TableKey",
    "TableDecl",
    "ControlDecl",
    "Program",
    "walk",
    "rebuild",
]


def _loc_field():
    return field(default_factory=SourceLocation.unknown, compare=False, repr=False)


@dataclass
class Node:
    """Base AST node."""

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (default: none)."""
        return iter(())


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass
class Type(Node):
    pass


@dataclass
class BitType(Type):
    """``bit<W>`` — unsigned integer of fixed width W."""

    width: int
    loc: SourceLocation = _loc_field()


@dataclass
class BoolType(Type):
    loc: SourceLocation = _loc_field()


@dataclass
class IntType(Type):
    """Arbitrary-width compile-time integer (loop indices, symbolics)."""

    loc: SourceLocation = _loc_field()


@dataclass
class NamedType(Type):
    """Reference to a header/struct type by name."""

    name: str
    loc: SourceLocation = _loc_field()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int
    loc: SourceLocation = _loc_field()


@dataclass
class FloatLit(Expr):
    """A float literal — only meaningful in utility functions (§3.2.4)."""

    value: float
    loc: SourceLocation = _loc_field()


@dataclass
class BoolLit(Expr):
    value: bool
    loc: SourceLocation = _loc_field()


@dataclass
class Name(Expr):
    """A bare identifier: variable, symbolic, register, loop index, ..."""

    ident: str
    loc: SourceLocation = _loc_field()


@dataclass
class Member(Expr):
    """Field access ``base.name`` (e.g. ``meta.min``, ``hdr.ipv4.src``)."""

    base: Expr
    name: str
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.base


@dataclass
class Index(Expr):
    """Array subscript ``base[index]`` (elastic arrays, register rows)."""

    base: Expr
    index: Expr
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.base
        yield self.index


@dataclass
class UnaryOp(Expr):
    op: str  # '-', '!', '~'
    operand: Expr
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.operand


@dataclass
class BinaryOp(Expr):
    op: str  # arithmetic, bitwise, comparison, logical
    left: Expr
    right: Expr
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.left
        yield self.right


@dataclass
class Ternary(Expr):
    cond: Expr
    if_true: Expr
    if_false: Expr
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.cond
        yield self.if_true
        yield self.if_false


@dataclass
class Call(Expr):
    """A call expression or statement.

    ``func`` is a :class:`Name` (``hash``, ``min``, an action name, a
    control name) or a :class:`Member` (``reg.write``, ``ctrl.apply``,
    ``table.apply``). P4All action invocations may carry an iteration
    index: ``incr()[i]`` parses with ``iter_index = Name('i')``.
    """

    func: Expr
    args: list[Expr]
    iter_index: Optional[Expr] = None
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.func
        yield from self.args
        if self.iter_index is not None:
            yield self.iter_index


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class Block(Stmt):
    stmts: list[Stmt]
    loc: SourceLocation = _loc_field()

    def children(self):
        yield from self.stmts


@dataclass
class Assign(Stmt):
    target: Expr  # Name / Member / Index lvalue
    value: Expr
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.target
        yield self.value


@dataclass
class IfStmt(Stmt):
    cond: Expr
    then_block: Block
    else_block: Optional[Block] = None
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.cond
        yield self.then_block
        if self.else_block is not None:
            yield self.else_block


@dataclass
class ForStmt(Stmt):
    """``for (i < bound) body`` — bound is usually a symbolic value."""

    var: str
    bound: Expr
    body: Block
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.bound
        yield self.body


@dataclass
class CallStmt(Stmt):
    """A call in statement position (action/control/register/table ops)."""

    call: Call
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.call


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Decl(Node):
    pass


@dataclass
class SymbolicDecl(Decl):
    """``symbolic int name;`` — a compiler-chosen integer."""

    name: str
    loc: SourceLocation = _loc_field()


@dataclass
class AssumeDecl(Decl):
    """``assume expr;`` — a user constraint added to the layout ILP."""

    condition: Expr
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.condition


@dataclass
class OptimizeDecl(Decl):
    """``optimize expr;`` — the utility function the compiler maximizes."""

    utility: Expr
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.utility


@dataclass
class ConstDecl(Decl):
    ty: Type
    name: str
    value: Expr
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.ty
        yield self.value


@dataclass
class FieldDecl(Decl):
    """A header/struct field; ``array_size`` makes it an elastic array.

    ``bit<32>[rows] index;`` parses with ``array_size = Name('rows')``.
    """

    ty: Type
    name: str
    array_size: Optional[Expr] = None
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.ty
        if self.array_size is not None:
            yield self.array_size


@dataclass
class HeaderDecl(Decl):
    name: str
    fields: list[FieldDecl] = field(default_factory=list)
    loc: SourceLocation = _loc_field()

    def children(self):
        yield from self.fields


@dataclass
class StructDecl(Decl):
    name: str
    fields: list[FieldDecl] = field(default_factory=list)
    loc: SourceLocation = _loc_field()

    def children(self):
        yield from self.fields


@dataclass
class RegisterDecl(Decl):
    """``register<cell>[size] name;`` or ``register<cell>[size][count] name;``

    ``size`` is the number of cells per register array; ``count`` (when
    present) makes this a symbolic array *of* register arrays — the CMS
    matrix ``register<bit<32>>[cols][rows] cms;`` has size ``cols`` and
    count ``rows``. Either extent may be a symbolic expression.
    """

    cell_type: Type
    size: Expr
    name: str
    count: Optional[Expr] = None
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.cell_type
        yield self.size
        if self.count is not None:
            yield self.count


@dataclass
class Param(Decl):
    direction: str  # '', 'in', 'out', 'inout'
    ty: Type
    name: str
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.ty


@dataclass
class ActionDecl(Decl):
    """``action name(params)[int i] { body }``.

    ``iter_param`` is the optional elastic iteration parameter: the action
    is instantiated once per loop iteration, each instance specialized to
    a concrete ``i`` (paper §3.2.3).
    """

    name: str
    params: list[Param]
    body: Block
    iter_param: Optional[str] = None
    loc: SourceLocation = _loc_field()

    def children(self):
        yield from self.params
        yield self.body


@dataclass
class TableKey(Node):
    expr: Expr
    match_kind: str  # 'exact' | 'ternary' | 'lpm'
    loc: SourceLocation = _loc_field()

    def children(self):
        yield self.expr


@dataclass
class TableDecl(Decl):
    name: str
    keys: list[TableKey] = field(default_factory=list)
    actions: list[str] = field(default_factory=list)
    size: Optional[Expr] = None
    default_action: Optional[str] = None
    loc: SourceLocation = _loc_field()

    def children(self):
        yield from self.keys
        if self.size is not None:
            yield self.size


@dataclass
class ControlDecl(Decl):
    """A control block: local declarations plus an ``apply`` body."""

    name: str
    params: list[Param]
    locals: list[Decl] = field(default_factory=list)
    apply: Block = field(default_factory=lambda: Block([]))
    loc: SourceLocation = _loc_field()

    def children(self):
        yield from self.params
        yield from self.locals
        yield self.apply


@dataclass
class Program(Node):
    """A parsed P4All compilation unit."""

    decls: list[Decl] = field(default_factory=list)
    source: str = field(default="", compare=False, repr=False)
    filename: str = field(default="<string>", compare=False)

    def children(self):
        yield from self.decls

    # -- convenience accessors ------------------------------------------------
    def symbolics(self) -> list[SymbolicDecl]:
        return [d for d in self.decls if isinstance(d, SymbolicDecl)]

    def assumes(self) -> list[AssumeDecl]:
        return [d for d in self.decls if isinstance(d, AssumeDecl)]

    def optimize(self) -> Optional[OptimizeDecl]:
        for d in self.decls:
            if isinstance(d, OptimizeDecl):
                return d
        return None

    def registers(self) -> list[RegisterDecl]:
        out = [d for d in self.decls if isinstance(d, RegisterDecl)]
        for ctrl in self.controls():
            out.extend(d for d in ctrl.locals if isinstance(d, RegisterDecl))
        return out

    def actions(self) -> list[ActionDecl]:
        out = [d for d in self.decls if isinstance(d, ActionDecl)]
        for ctrl in self.controls():
            out.extend(d for d in ctrl.locals if isinstance(d, ActionDecl))
        return out

    def tables(self) -> list[TableDecl]:
        out = [d for d in self.decls if isinstance(d, TableDecl)]
        for ctrl in self.controls():
            out.extend(d for d in ctrl.locals if isinstance(d, TableDecl))
        return out

    def controls(self) -> list[ControlDecl]:
        return [d for d in self.decls if isinstance(d, ControlDecl)]

    def control(self, name: str) -> ControlDecl:
        for ctrl in self.controls():
            if ctrl.name == name:
                return ctrl
        raise KeyError(f"no control named {name!r}")

    def structs(self) -> list[StructDecl]:
        return [d for d in self.decls if isinstance(d, StructDecl)]

    def headers(self) -> list[HeaderDecl]:
        return [d for d in self.decls if isinstance(d, HeaderDecl)]


def walk(node: Node) -> Iterator[Node]:
    """Depth-first pre-order traversal of ``node`` and its descendants."""
    yield node
    for child in node.children():
        yield from walk(child)


def rebuild(node: Node, transform, arg) -> Node:
    """``node`` with each child subtree ``c`` replaced by
    ``transform(c, arg)``. When every child comes back as the same object,
    ``node`` itself is returned; otherwise a new node of its class over
    a copy of its ``__dict__``, so the children ``transform`` left alone
    are shared with ``node``, never copied."""
    changed = None
    for attr, value in vars(node).items():
        if isinstance(value, Node):
            new = transform(value, arg)
        elif isinstance(value, list):
            new = [transform(v, arg) if isinstance(v, Node) else v
                   for v in value]
            if all(a is b for a, b in zip(new, value)):
                continue
        else:
            continue
        if new is not value:
            if changed is None:
                changed = {}
            changed[attr] = new
    if changed is None:
        return node
    clone = object.__new__(type(node))
    clone.__dict__.update(vars(node))
    clone.__dict__.update(changed)
    return clone
