"""Recursive-descent parser for P4All.

Produces a :class:`repro.lang.ast.Program`. The grammar is the P4 subset
used throughout the paper's examples plus the elastic extensions; see
``docs`` in the package ``__init__`` and the module library sources under
``repro/structures/p4all_src`` for concrete programs.
"""

from __future__ import annotations

from . import ast
from .errors import ParseError, SourceLocation
from .lexer import tokenize
from .tokens import Token, TokenKind

__all__ = ["Parser", "parse_program"]

_TK = TokenKind

# Binary operator precedence (higher binds tighter); all left-associative.
_BINOP_PRECEDENCE: dict[TokenKind, tuple[int, str]] = {
    _TK.OR: (1, "||"),
    _TK.AND: (2, "&&"),
    _TK.PIPE: (3, "|"),
    _TK.CARET: (4, "^"),
    _TK.AMP: (5, "&"),
    _TK.EQ: (6, "=="),
    _TK.NE: (6, "!="),
    _TK.LT: (7, "<"),
    _TK.GT: (7, ">"),
    _TK.LE: (7, "<="),
    _TK.GE: (7, ">="),
    _TK.SHL: (8, "<<"),
    _TK.SHR: (8, ">>"),
    _TK.PLUS: (9, "+"),
    _TK.MINUS: (9, "-"),
    _TK.STAR: (10, "*"),
    _TK.SLASH: (10, "/"),
    _TK.PERCENT: (10, "%"),
}

_MATCH_KINDS = {
    _TK.KW_EXACT: "exact",
    _TK.KW_TERNARY: "ternary",
    _TK.KW_LPM: "lpm",
}


class Parser:
    """Single-pass recursive-descent parser over a token list."""

    def __init__(self, source: str, filename: str = "<string>"):
        self.source = source
        self.filename = filename
        self.tokens = tokenize(source, filename)
        self.pos = 0

    # -- token-stream helpers -------------------------------------------------
    def _peek(self, ahead: int = 0) -> Token:
        idx = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[idx]

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not _TK.EOF:
            self.pos += 1
        return tok

    def _check(self, kind: TokenKind) -> bool:
        return self._peek().kind is kind

    def _accept(self, kind: TokenKind) -> Token | None:
        if self._check(kind):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, what: str = "") -> Token:
        tok = self._peek()
        if tok.kind is kind:
            return self._advance()
        expected = what or f"'{kind.value}'"
        raise ParseError(
            f"expected {expected}, found '{tok.value if tok.value is not None else tok.kind.value}'",
            tok.loc,
            self.source,
        )

    def _expect_gt(self) -> None:
        """Consume a ``>``, splitting a ``>>`` token if necessary.

        Needed for nested angle brackets as in ``register<bit<32>>``.
        """
        tok = self._peek()
        if tok.kind is _TK.GT:
            self._advance()
            return
        if tok.kind is _TK.SHR:
            # Replace the '>>' with a synthetic '>' at the next column.
            split_loc = SourceLocation(tok.loc.filename, tok.loc.line, tok.loc.column + 1)
            self.tokens[self.pos] = Token(_TK.GT, ">", split_loc)
            return
        raise ParseError("expected '>'", tok.loc, self.source)

    def _error(self, message: str, loc: SourceLocation | None = None) -> ParseError:
        return ParseError(message, loc or self._peek().loc, self.source)

    # -- entry points -----------------------------------------------------------
    def parse_program(self) -> ast.Program:
        decls: list[ast.Decl] = []
        while not self._check(_TK.EOF):
            decls.append(self._parse_top_decl())
        return ast.Program(decls=decls, source=self.source, filename=self.filename)

    def parse_expression(self) -> ast.Expr:
        expr = self._parse_expr()
        self._expect(_TK.EOF, "end of expression")
        return expr

    # -- declarations -------------------------------------------------------------
    def _parse_top_decl(self) -> ast.Decl:
        tok = self._peek()
        if tok.kind is _TK.KW_SYMBOLIC:
            return self._parse_symbolic()
        if tok.kind is _TK.KW_ASSUME:
            return self._parse_assume()
        if tok.kind is _TK.KW_OPTIMIZE:
            return self._parse_optimize()
        if tok.kind is _TK.KW_CONST:
            return self._parse_const()
        if tok.kind is _TK.KW_HEADER:
            return self._parse_header_or_struct(is_header=True)
        if tok.kind is _TK.KW_STRUCT:
            return self._parse_header_or_struct(is_header=False)
        if tok.kind is _TK.KW_REGISTER:
            return self._parse_register()
        if tok.kind is _TK.KW_ACTION:
            return self._parse_action()
        if tok.kind is _TK.KW_TABLE:
            return self._parse_table()
        if tok.kind is _TK.KW_CONTROL:
            return self._parse_control()
        raise self._error(f"unexpected token '{tok.value}' at top level")

    def _parse_symbolic(self) -> ast.SymbolicDecl:
        loc = self._expect(_TK.KW_SYMBOLIC).loc
        self._expect(_TK.KW_INT, "'int' after 'symbolic'")
        name = self._expect(_TK.IDENT, "symbolic value name").value
        self._expect(_TK.SEMI)
        return ast.SymbolicDecl(name=name, loc=loc)

    def _parse_assume(self) -> ast.AssumeDecl:
        loc = self._expect(_TK.KW_ASSUME).loc
        cond = self._parse_expr()
        self._expect(_TK.SEMI)
        return ast.AssumeDecl(condition=cond, loc=loc)

    def _parse_optimize(self) -> ast.OptimizeDecl:
        loc = self._expect(_TK.KW_OPTIMIZE).loc
        utility = self._parse_expr()
        self._expect(_TK.SEMI)
        return ast.OptimizeDecl(utility=utility, loc=loc)

    def _parse_const(self) -> ast.ConstDecl:
        loc = self._expect(_TK.KW_CONST).loc
        ty = self._parse_type()
        name = self._expect(_TK.IDENT, "constant name").value
        self._expect(_TK.ASSIGN)
        value = self._parse_expr()
        self._expect(_TK.SEMI)
        return ast.ConstDecl(ty=ty, name=name, value=value, loc=loc)

    def _parse_type(self) -> ast.Type:
        tok = self._peek()
        if tok.kind is _TK.KW_BIT:
            self._advance()
            self._expect(_TK.LT)
            width = self._expect(_TK.INT, "bit width").value
            self._expect_gt()
            return ast.BitType(width=int(width), loc=tok.loc)
        if tok.kind is _TK.KW_BOOL:
            self._advance()
            return ast.BoolType(loc=tok.loc)
        if tok.kind is _TK.KW_INT:
            self._advance()
            return ast.IntType(loc=tok.loc)
        if tok.kind is _TK.IDENT:
            self._advance()
            return ast.NamedType(name=tok.value, loc=tok.loc)
        raise self._error("expected a type")

    def _parse_header_or_struct(self, is_header: bool) -> ast.Decl:
        loc = self._advance().loc  # 'header' or 'struct'
        name = self._expect(_TK.IDENT, "type name").value
        self._expect(_TK.LBRACE)
        fields: list[ast.FieldDecl] = []
        while not self._accept(_TK.RBRACE):
            fields.append(self._parse_field())
        cls = ast.HeaderDecl if is_header else ast.StructDecl
        return cls(name=name, fields=fields, loc=loc)

    def _parse_field(self) -> ast.FieldDecl:
        ty = self._parse_type()
        array_size: ast.Expr | None = None
        if self._accept(_TK.LBRACKET):
            array_size = self._parse_expr()
            self._expect(_TK.RBRACKET)
        name_tok = self._expect(_TK.IDENT, "field name")
        self._expect(_TK.SEMI)
        return ast.FieldDecl(
            ty=ty, name=name_tok.value, array_size=array_size, loc=name_tok.loc
        )

    def _parse_register(self) -> ast.RegisterDecl:
        loc = self._expect(_TK.KW_REGISTER).loc
        self._expect(_TK.LT)
        cell = self._parse_type()
        self._expect_gt()
        self._expect(_TK.LBRACKET)
        size = self._parse_expr()
        self._expect(_TK.RBRACKET)
        count: ast.Expr | None = None
        if self._accept(_TK.LBRACKET):
            count = self._parse_expr()
            self._expect(_TK.RBRACKET)
        name = self._expect(_TK.IDENT, "register name").value
        self._expect(_TK.SEMI)
        return ast.RegisterDecl(cell_type=cell, size=size, name=name, count=count, loc=loc)

    def _parse_action(self) -> ast.ActionDecl:
        loc = self._expect(_TK.KW_ACTION).loc
        name = self._expect(_TK.IDENT, "action name").value
        params = self._parse_params()
        iter_param: str | None = None
        if self._accept(_TK.LBRACKET):
            self._expect(_TK.KW_INT, "'int' in iteration parameter")
            iter_param = self._expect(_TK.IDENT, "iteration parameter name").value
            self._expect(_TK.RBRACKET)
        body = self._parse_block()
        return ast.ActionDecl(
            name=name, params=params, body=body, iter_param=iter_param, loc=loc
        )

    def _parse_params(self) -> list[ast.Param]:
        self._expect(_TK.LPAREN)
        params: list[ast.Param] = []
        if not self._check(_TK.RPAREN):
            while True:
                direction = ""
                for kw, text in (
                    (_TK.KW_INOUT, "inout"),
                    (_TK.KW_IN, "in"),
                    (_TK.KW_OUT, "out"),
                ):
                    if self._accept(kw):
                        direction = text
                        break
                ty = self._parse_type()
                name_tok = self._expect(_TK.IDENT, "parameter name")
                params.append(
                    ast.Param(direction=direction, ty=ty, name=name_tok.value, loc=name_tok.loc)
                )
                if not self._accept(_TK.COMMA):
                    break
        self._expect(_TK.RPAREN)
        return params

    def _parse_table(self) -> ast.TableDecl:
        loc = self._expect(_TK.KW_TABLE).loc
        name = self._expect(_TK.IDENT, "table name").value
        self._expect(_TK.LBRACE)
        keys: list[ast.TableKey] = []
        actions: list[str] = []
        size: ast.Expr | None = None
        default_action: str | None = None
        while not self._accept(_TK.RBRACE):
            tok = self._peek()
            if tok.kind is _TK.KW_KEY:
                self._advance()
                self._expect(_TK.ASSIGN)
                self._expect(_TK.LBRACE)
                while not self._accept(_TK.RBRACE):
                    expr = self._parse_expr()
                    self._expect(_TK.COLON)
                    kind_tok = self._advance()
                    if kind_tok.kind not in _MATCH_KINDS:
                        raise self._error(
                            "expected a match kind (exact/ternary/lpm)", kind_tok.loc
                        )
                    self._expect(_TK.SEMI)
                    keys.append(
                        ast.TableKey(expr=expr, match_kind=_MATCH_KINDS[kind_tok.kind], loc=tok.loc)
                    )
            elif tok.kind is _TK.KW_ACTIONS:
                self._advance()
                self._expect(_TK.ASSIGN)
                self._expect(_TK.LBRACE)
                while not self._accept(_TK.RBRACE):
                    actions.append(self._expect(_TK.IDENT, "action name").value)
                    self._accept(_TK.SEMI) or self._accept(_TK.COMMA)
            elif tok.kind is _TK.KW_SIZE:
                self._advance()
                self._expect(_TK.ASSIGN)
                size = self._parse_expr()
                self._expect(_TK.SEMI)
            elif tok.kind is _TK.KW_DEFAULT_ACTION:
                self._advance()
                self._expect(_TK.ASSIGN)
                default_action = self._expect(_TK.IDENT, "action name").value
                self._accept(_TK.LPAREN) and self._expect(_TK.RPAREN)
                self._expect(_TK.SEMI)
            else:
                raise self._error(
                    f"unexpected token '{tok.value}' in table declaration", tok.loc
                )
        return ast.TableDecl(
            name=name,
            keys=keys,
            actions=actions,
            size=size,
            default_action=default_action,
            loc=loc,
        )

    def _parse_control(self) -> ast.ControlDecl:
        loc = self._expect(_TK.KW_CONTROL).loc
        name = self._expect(_TK.IDENT, "control name").value
        params = self._parse_params()
        self._expect(_TK.LBRACE)
        locals_: list[ast.Decl] = []
        apply_block: ast.Block | None = None
        while not self._accept(_TK.RBRACE):
            tok = self._peek()
            if tok.kind is _TK.KW_APPLY:
                self._advance()
                apply_block = self._parse_block()
            elif tok.kind is _TK.KW_ACTION:
                locals_.append(self._parse_action())
            elif tok.kind is _TK.KW_TABLE:
                locals_.append(self._parse_table())
            elif tok.kind is _TK.KW_REGISTER:
                locals_.append(self._parse_register())
            elif tok.kind is _TK.KW_CONST:
                locals_.append(self._parse_const())
            else:
                raise self._error(
                    f"unexpected token '{tok.value}' in control body", tok.loc
                )
        if apply_block is None:
            raise self._error(f"control '{name}' has no apply block", loc)
        return ast.ControlDecl(
            name=name, params=params, locals=locals_, apply=apply_block, loc=loc
        )

    # -- statements ---------------------------------------------------------------
    def _parse_block(self) -> ast.Block:
        loc = self._expect(_TK.LBRACE).loc
        stmts: list[ast.Stmt] = []
        while not self._accept(_TK.RBRACE):
            stmts.append(self._parse_stmt())
        return ast.Block(stmts=stmts, loc=loc)

    def _parse_stmt(self) -> ast.Stmt:
        tok = self._peek()
        if tok.kind is _TK.KW_IF:
            return self._parse_if()
        if tok.kind is _TK.KW_FOR:
            return self._parse_for()
        if tok.kind is _TK.LBRACE:
            return self._parse_block()
        # Expression-statement: assignment or call.
        expr = self._parse_postfix()
        if self._accept(_TK.ASSIGN):
            value = self._parse_expr()
            self._expect(_TK.SEMI)
            return ast.Assign(target=expr, value=value, loc=tok.loc)
        self._expect(_TK.SEMI)
        if not isinstance(expr, ast.Call):
            raise self._error("expression statement must be a call or assignment", tok.loc)
        return ast.CallStmt(call=expr, loc=tok.loc)

    def _parse_if(self) -> ast.IfStmt:
        loc = self._expect(_TK.KW_IF).loc
        self._expect(_TK.LPAREN)
        cond = self._parse_expr()
        self._expect(_TK.RPAREN)
        then_block = self._parse_block_or_single()
        else_block: ast.Block | None = None
        if self._accept(_TK.KW_ELSE):
            if self._check(_TK.KW_IF):
                nested = self._parse_if()
                else_block = ast.Block(stmts=[nested], loc=nested.loc)
            else:
                else_block = self._parse_block_or_single()
        return ast.IfStmt(cond=cond, then_block=then_block, else_block=else_block, loc=loc)

    def _parse_block_or_single(self) -> ast.Block:
        if self._check(_TK.LBRACE):
            return self._parse_block()
        stmt = self._parse_stmt()
        return ast.Block(stmts=[stmt], loc=stmt.loc)

    def _parse_for(self) -> ast.ForStmt:
        loc = self._expect(_TK.KW_FOR).loc
        self._expect(_TK.LPAREN)
        var = self._expect(_TK.IDENT, "loop variable").value
        self._expect(_TK.LT, "'<' in loop header")
        bound = self._parse_expr()
        self._expect(_TK.RPAREN)
        body = self._parse_block()
        return ast.ForStmt(var=var, bound=bound, body=body, loc=loc)

    # -- expressions ----------------------------------------------------------------
    def _parse_expr(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self._accept(_TK.QUESTION):
            if_true = self._parse_expr()
            self._expect(_TK.COLON)
            if_false = self._parse_expr()
            return ast.Ternary(cond=cond, if_true=if_true, if_false=if_false, loc=cond.loc)
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            info = _BINOP_PRECEDENCE.get(self._peek().kind)
            if info is None or info[0] < min_prec:
                return left
            prec, op = info
            op_loc = self._advance().loc
            right = self._parse_binary(prec + 1)
            left = ast.BinaryOp(op=op, left=left, right=right, loc=op_loc)

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind in (_TK.MINUS, _TK.NOT, _TK.TILDE):
            self._advance()
            operand = self._parse_unary()
            op = {"-": "-", "!": "!", "~": "~"}[tok.value]
            return ast.UnaryOp(op=op, operand=operand, loc=tok.loc)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.kind is _TK.DOT:
                self._advance()
                # 'apply' is a keyword but also a method name (table/control apply).
                if self._check(_TK.KW_APPLY):
                    self._advance()
                    expr = ast.Member(base=expr, name="apply", loc=tok.loc)
                else:
                    name = self._expect(_TK.IDENT, "member name").value
                    expr = ast.Member(base=expr, name=name, loc=tok.loc)
            elif tok.kind is _TK.LBRACKET:
                self._advance()
                index = self._parse_expr()
                self._expect(_TK.RBRACKET)
                if isinstance(expr, ast.Call) and expr.iter_index is None:
                    # ``incr()[i]`` — iteration index on an action invocation.
                    expr.iter_index = index
                else:
                    expr = ast.Index(base=expr, index=index, loc=tok.loc)
            elif tok.kind is _TK.LPAREN:
                self._advance()
                args: list[ast.Expr] = []
                if not self._check(_TK.RPAREN):
                    while True:
                        args.append(self._parse_expr())
                        if not self._accept(_TK.COMMA):
                            break
                self._expect(_TK.RPAREN)
                expr = ast.Call(func=expr, args=args, loc=tok.loc)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is _TK.INT:
            self._advance()
            return ast.IntLit(value=tok.value, loc=tok.loc)
        if tok.kind is _TK.FLOAT:
            self._advance()
            return ast.FloatLit(value=tok.value, loc=tok.loc)
        if tok.kind in (_TK.KW_TRUE, _TK.KW_FALSE):
            self._advance()
            return ast.BoolLit(value=bool(tok.value), loc=tok.loc)
        if tok.kind is _TK.IDENT:
            self._advance()
            return ast.Name(ident=tok.value, loc=tok.loc)
        if tok.kind is _TK.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(_TK.RPAREN)
            return expr
        raise self._error(f"unexpected token '{tok.value}' in expression", tok.loc)


def parse_program(source: str, filename: str = "<string>") -> ast.Program:
    """Parse a full P4All program from source text."""
    return Parser(source, filename).parse_program()
