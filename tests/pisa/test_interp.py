"""Interpreter unit tests (ExecContext-level, no compilation)."""

import pytest

from repro.lang import parse_expression
from repro.lang.parser import Parser
from repro.pisa.interp import ExecContext, SimulationError, eval_expr, exec_stmt
from repro.pisa.registers import RegisterFile
from repro.pisa.tables import MatchActionTable, TableEntry


def make_ctx(snapshot=None, registers=None):
    return ExecContext(
        snapshot=snapshot or {},
        registers=registers or RegisterFile(),
        tables={},
        hash_fns={},
        actions={},
        consts={"LIMIT": 10},
    )


def parse_stmt(text: str):
    parser = Parser(f"control C(inout metadata m) {{ apply {{ {text} }} }}")
    return parser.parse_program().control("C").apply.stmts[0]


class TestEvalExpr:
    def test_literals_and_fields(self):
        ctx = make_ctx({"meta.a": 5})
        assert eval_expr(parse_expression("3"), ctx) == 3
        assert eval_expr(parse_expression("meta.a"), ctx) == 5
        assert eval_expr(parse_expression("meta.unset"), ctx) == 0

    def test_consts_resolve(self):
        ctx = make_ctx()
        assert eval_expr(parse_expression("LIMIT + 1"), ctx) == 11

    def test_local_scalars_shadow(self):
        ctx = make_ctx()
        ctx.scalars["port"] = 9
        assert eval_expr(parse_expression("port"), ctx) == 9

    def test_indexed_field_key_resolution(self):
        ctx = make_ctx({"meta.count[2]": 7})
        assert eval_expr(parse_expression("meta.count[1 + 1]"), ctx) == 7

    def test_ternary_lazy(self):
        ctx = make_ctx({"meta.a": 1})
        assert eval_expr(parse_expression("meta.a == 1 ? 10 : 20"), ctx) == 10

    def test_short_circuit_protects_rhs(self):
        # Without short-circuit this would raise (negative shift).
        ctx = make_ctx({"meta.x": 3})
        expr = parse_expression("(1 == 1) || ((meta.x >> (0 - 1)) == 0)")
        assert eval_expr(expr, ctx) == 1
        expr = parse_expression("(1 == 0) && ((meta.x >> (0 - 1)) == 0)")
        assert eval_expr(expr, ctx) == 0

    def test_hash_deterministic_and_seeded(self):
        ctx = make_ctx({"meta.a": 42})
        h1 = eval_expr(parse_expression("hash(1, meta.a)"), ctx)
        h1_again = eval_expr(parse_expression("hash(1, meta.a)"), ctx)
        h2 = eval_expr(parse_expression("hash(2, meta.a)"), ctx)
        assert h1 == h1_again
        assert h1 != h2

    def test_min_max_builtins(self):
        ctx = make_ctx()
        assert eval_expr(parse_expression("min(4, 2, 9)"), ctx) == 2
        assert eval_expr(parse_expression("max(4, 2, 9)"), ctx) == 9

    def test_unknown_call_raises(self):
        ctx = make_ctx()
        with pytest.raises(SimulationError, match="cannot evaluate call"):
            eval_expr(parse_expression("frob(1)"), ctx)


class TestExecStmt:
    def test_assign_visible_to_later_statements(self):
        ctx = make_ctx({"meta.a": 2})
        exec_stmt(parse_stmt("m.t = meta.a * 3;"), ctx)
        exec_stmt(parse_stmt("m.u = m.t + 1;"), ctx)
        assert ctx.local_writes["m.u"] == 7

    def test_register_roundtrip(self):
        regs = RegisterFile()
        regs.create("r[0]", 8, 32, stage=0)
        ctx = make_ctx(registers=regs)
        exec_stmt(parse_stmt("r.write(3, 44);"), ctx)
        exec_stmt(parse_stmt("r.read(m.v, 3);"), ctx)
        assert ctx.local_writes["m.v"] == 44

    def test_indexed_register_instance(self):
        regs = RegisterFile()
        regs.create("r[1]", 8, 32, stage=0)
        ctx = make_ctx(registers=regs)
        exec_stmt(parse_stmt("r[1].add(0, 5);"), ctx)
        assert regs.get("r[1]").read(0) == 5

    def test_table_apply_with_action_data(self):
        table = MatchActionTable("t", ["meta.k"], ["exact"])
        table.add_entry(TableEntry(match=(5,), action="set_v", action_data=(99,)))
        from repro.lang import parse_program

        program = parse_program(
            "action set_v(bit<32> v) { meta.out_v = v; }"
        )
        ctx = make_ctx({"meta.k": 5})
        ctx.tables["t"] = table
        ctx.actions = {"set_v": program.actions()[0]}
        exec_stmt(parse_stmt("t.apply();"), ctx)
        assert ctx.local_writes["meta.out_v"] == 99
        assert ctx.table_hits["t"] is True

    def test_table_action_data_arity_checked(self):
        table = MatchActionTable("t", ["meta.k"], ["exact"])
        table.add_entry(TableEntry(match=(5,), action="set_v", action_data=()))
        from repro.lang import parse_program

        program = parse_program("action set_v(bit<32> v) { meta.o = v; }")
        ctx = make_ctx({"meta.k": 5})
        ctx.tables["t"] = table
        ctx.actions = {"set_v": program.actions()[0]}
        with pytest.raises(SimulationError, match="data values"):
            exec_stmt(parse_stmt("t.apply();"), ctx)
