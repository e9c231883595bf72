"""Parser unit tests."""

import pytest

from repro.lang import ParseError, Parser, ast, parse_program


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = Parser("1 + 2 * 3").parse_expression()
        assert isinstance(expr, ast.BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "*"

    def test_left_associativity(self):
        expr = Parser("10 - 4 - 3").parse_expression()
        assert expr.op == "-"
        assert isinstance(expr.left, ast.BinaryOp) and expr.left.op == "-"
        assert isinstance(expr.right, ast.IntLit) and expr.right.value == 3

    def test_parentheses_override(self):
        expr = Parser("(1 + 2) * 3").parse_expression()
        assert expr.op == "*"
        assert isinstance(expr.left, ast.BinaryOp) and expr.left.op == "+"

    def test_comparison_and_logic(self):
        expr = Parser("a < 4 && b >= 2").parse_expression()
        assert expr.op == "&&"
        assert expr.left.op == "<"
        assert expr.right.op == ">="

    def test_ternary(self):
        expr = Parser("a == 1 ? x : y").parse_expression()
        assert isinstance(expr, ast.Ternary)
        assert isinstance(expr.cond, ast.BinaryOp)

    def test_member_and_index_chain(self):
        expr = Parser("meta.count[i]").parse_expression()
        assert isinstance(expr, ast.Index)
        assert isinstance(expr.base, ast.Member)
        assert expr.base.name == "count"

    def test_call_with_iter_index(self):
        expr = Parser("incr()[i]").parse_expression()
        assert isinstance(expr, ast.Call)
        assert isinstance(expr.iter_index, ast.Name)
        assert expr.iter_index.ident == "i"

    def test_call_result_can_be_compared(self):
        expr = Parser("hash(1, x) < 10").parse_expression()
        assert expr.op == "<"
        assert isinstance(expr.left, ast.Call)

    def test_unary_operators(self):
        expr = Parser("!(-x)").parse_expression()
        assert isinstance(expr, ast.UnaryOp) and expr.op == "!"
        assert isinstance(expr.operand, ast.UnaryOp)

    def test_float_in_expression(self):
        expr = Parser("0.4 * rows").parse_expression()
        assert isinstance(expr.left, ast.FloatLit)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            Parser("1 + 2 extra").parse_expression()


class TestDeclarations:
    def test_symbolic_decl(self):
        prog = parse_program("symbolic int rows;")
        assert prog.symbolics()[0].name == "rows"

    def test_assume_and_optimize(self):
        prog = parse_program(
            "symbolic int r;\nassume r >= 1 && r < 4;\noptimize r * 10;"
        )
        assert len(prog.assumes()) == 1
        assert prog.optimize() is not None

    def test_register_with_two_extents(self):
        prog = parse_program("symbolic int c;\nregister<bit<32>>[c][4] cms;")
        reg = prog.registers()[0]
        assert isinstance(reg.size, ast.Name) and reg.size.ident == "c"
        assert isinstance(reg.count, ast.IntLit) and reg.count.value == 4

    def test_register_single_extent(self):
        prog = parse_program("register<bit<1>>[1024] bloom;")
        reg = prog.registers()[0]
        assert reg.count is None
        assert reg.cell_type.width == 1

    def test_nested_angle_brackets_split(self):
        # register<bit<32>> requires splitting the '>>' token.
        prog = parse_program("register<bit<32>>[8] r;")
        assert prog.registers()[0].cell_type.width == 32

    def test_struct_with_elastic_field(self):
        prog = parse_program(
            "symbolic int rows;\nstruct metadata { bit<32>[rows] count; bit<8> x; }"
        )
        fields = prog.structs()[0].fields
        assert fields[0].array_size is not None
        assert fields[1].array_size is None

    def test_action_with_iter_param(self):
        prog = parse_program("action incr()[int i] { meta.x = i; }")
        action = prog.actions()[0]
        assert action.iter_param == "i"

    def test_action_with_params(self):
        prog = parse_program("action set_port(bit<9> port) { meta.egress = port; }")
        action = prog.actions()[0]
        assert action.params[0].name == "port"
        assert action.params[0].ty.width == 9

    def test_table_declaration(self):
        prog = parse_program(
            "action a() { meta.x = 1; }\n"
            "table t {\n"
            "  key = { meta.dst : exact; meta.src : ternary; }\n"
            "  actions = { a; NoAction; }\n"
            "  size = 512;\n"
            "  default_action = NoAction;\n"
            "}"
        )
        table = prog.tables()[0]
        assert [k.match_kind for k in table.keys] == ["exact", "ternary"]
        assert table.actions == ["a", "NoAction"]
        assert table.size.value == 512
        assert table.default_action == "NoAction"

    def test_control_with_locals_and_apply(self):
        prog = parse_program(
            "control C(inout metadata meta) {\n"
            "  action a() { meta.x = 1; }\n"
            "  apply { a(); }\n"
            "}"
        )
        ctrl = prog.control("C")
        assert len(ctrl.locals) == 1
        assert len(ctrl.apply.stmts) == 1

    def test_control_without_apply_rejected(self):
        with pytest.raises(ParseError, match="no apply block"):
            parse_program("control C() { action a() { meta.x = 1; } }")

    def test_const_decl(self):
        prog = parse_program("const int LEVELS = 8;")
        assert prog.decls[0].name == "LEVELS"


class TestStatements:
    def _stmts(self, body: str):
        prog = parse_program(f"control C(inout metadata meta) {{ apply {{ {body} }} }}")
        return prog.control("C").apply.stmts

    def test_assignment(self):
        (stmt,) = self._stmts("meta.x = 4;")
        assert isinstance(stmt, ast.Assign)

    def test_for_loop(self):
        (stmt,) = self._stmts("for (i < rows) { incr()[i]; }")
        assert isinstance(stmt, ast.ForStmt)
        assert stmt.var == "i"
        assert stmt.bound.ident == "rows"

    def test_if_else_chain(self):
        (stmt,) = self._stmts(
            "if (meta.a == 1) { meta.x = 1; } else if (meta.a == 2) { meta.x = 2; }"
            " else { meta.x = 3; }"
        )
        assert isinstance(stmt, ast.IfStmt)
        nested = stmt.else_block.stmts[0]
        assert isinstance(nested, ast.IfStmt)
        assert nested.else_block is not None

    def test_register_method_statement(self):
        (stmt,) = self._stmts("cms[i].add_read(meta.count[i], meta.index[i], 1);")
        assert isinstance(stmt, ast.CallStmt)
        assert stmt.call.func.name == "add_read"

    def test_table_apply_statement(self):
        (stmt,) = self._stmts("route.apply();")
        assert stmt.call.func.name == "apply"

    def test_non_call_expression_statement_rejected(self):
        with pytest.raises(ParseError):
            self._stmts("meta.x + 1;")

    def test_bare_field_statement_rejected(self):
        with pytest.raises(ParseError, match="call or assignment"):
            self._stmts("meta.x;")


class TestErrorQuality:
    def test_error_mentions_expected_token(self):
        with pytest.raises(ParseError, match="expected"):
            parse_program("symbolic rows;")

    def test_error_has_caret_snippet(self):
        with pytest.raises(ParseError) as exc:
            parse_program("symbolic int ;")
        message = str(exc.value)
        assert "^" in message and "symbolic int ;" in message
