"""Pretty-printer round-trip tests: parse(pretty(ast)) == ast."""

import pytest
from hypothesis import given, strategies as st

from repro.lang import Parser, ast, parse_program, pretty_expr, pretty_program
from repro.structures import LIBRARY_SOURCES
from repro.apps import APP_SOURCES


def round_trip_program(source: str):
    prog = parse_program(source)
    text = pretty_program(prog)
    again = parse_program(text)
    assert again.decls == prog.decls, f"pretty output re-parsed differently:\n{text}"


class TestProgramRoundTrips:
    @pytest.mark.parametrize("name", sorted(LIBRARY_SOURCES))
    def test_library_sources_round_trip(self, name):
        round_trip_program(LIBRARY_SOURCES[name])

    @pytest.mark.parametrize("name", ["netcache", "sketchlearn", "precision", "conquest"])
    def test_app_sources_round_trip(self, name):
        round_trip_program(APP_SOURCES()[name])

    def test_table_round_trip(self):
        round_trip_program(
            "action a() { meta.x = 1; }\n"
            "table t { key = { meta.d : lpm; } actions = { a; } size = 16; }"
        )


# --- expression round-trip via hypothesis-generated ASTs -------------------

_names = st.sampled_from(["a", "b", "rows", "cols", "x9"])


def _expr_strategy():
    leaves = st.one_of(
        st.integers(min_value=0, max_value=1 << 20).map(lambda v: ast.IntLit(value=v)),
        _names.map(lambda n: ast.Name(ident=n)),
        st.booleans().map(lambda b: ast.BoolLit(value=b)),
    )

    def extend(children):
        binop = st.builds(
            lambda op, left, right: ast.BinaryOp(op=op, left=left, right=right),
            st.sampled_from(["+", "-", "*", "/", "%", "&", "|", "^",
                             "<<", ">>", "<", ">", "<=", ">=", "==", "!=",
                             "&&", "||"]),
            children,
            children,
        )
        unop = st.builds(
            lambda op, operand: ast.UnaryOp(op=op, operand=operand),
            st.sampled_from(["-", "!", "~"]),
            children,
        )
        ternary = st.builds(
            lambda c, t, f: ast.Ternary(cond=c, if_true=t, if_false=f),
            children, children, children,
        )
        member = st.builds(
            lambda base, name: ast.Member(base=ast.Name(ident=base), name=name),
            _names, _names,
        )
        index = st.builds(
            lambda base, idx: ast.Index(base=base, index=idx),
            member, children,
        )
        call = st.builds(
            lambda args: ast.Call(func=ast.Name(ident="hash"), args=args),
            st.lists(children, min_size=1, max_size=3),
        )
        return st.one_of(binop, unop, ternary, index, call)

    return st.recursive(leaves, extend, max_leaves=12)


class TestExpressionRoundTrips:
    @given(_expr_strategy())
    def test_pretty_then_parse_preserves_structure(self, expr):
        text = pretty_expr(expr)
        reparsed = Parser(text).parse_expression()
        assert reparsed == expr, f"{text!r} reparsed differently"

    def test_precedence_needs_parens(self):
        # (1 + 2) * 3 must not print as 1 + 2 * 3.
        expr = ast.BinaryOp(
            op="*",
            left=ast.BinaryOp(op="+", left=ast.IntLit(value=1), right=ast.IntLit(value=2)),
            right=ast.IntLit(value=3),
        )
        assert Parser(pretty_expr(expr)).parse_expression() == expr

    def test_nested_same_precedence_right_side(self):
        # 10 - (4 - 3) must keep its parentheses.
        expr = ast.BinaryOp(
            op="-",
            left=ast.IntLit(value=10),
            right=ast.BinaryOp(op="-", left=ast.IntLit(value=4), right=ast.IntLit(value=3)),
        )
        text = pretty_expr(expr)
        assert Parser(text).parse_expression() == expr
