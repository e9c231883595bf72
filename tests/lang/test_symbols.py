"""Semantic-check unit tests."""

import pytest

from repro.lang import SemanticError, check_program, eval_static, parse_program
from repro.lang.symbols import ProgramInfo


def check(source: str) -> ProgramInfo:
    return check_program(parse_program(source))


VALID = """
symbolic int rows;
const int W = 32;
struct metadata {
    bit<32> flow_id;
    bit<32>[rows] count;
}
register<bit<32>>[1024][rows] sketch;
action touch()[int i] {
    sketch[i].add_read(meta.count[i], meta.flow_id, 1);
}
control Ingress(inout metadata meta) {
    apply { for (i < rows) { touch()[i]; } }
}
"""


class TestCollection:
    def test_valid_program_summary(self):
        info = check(VALID)
        assert info.symbolics == ["rows"]
        assert info.consts == {"W": 32}
        assert "sketch" in info.registers
        assert info.metadata["count"].is_elastic
        assert not info.metadata["flow_id"].is_elastic
        assert info.metadata_fixed_bits() == 32

    def test_register_facts(self):
        info = check(VALID)
        reg = info.registers["sketch"]
        assert reg.cell_bits == 32
        assert reg.is_elastic_count
        assert not reg.is_elastic_size


class TestRejections:
    def test_duplicate_symbolic(self):
        with pytest.raises(SemanticError, match="declared twice"):
            check("symbolic int r;\nsymbolic int r;")

    def test_duplicate_register(self):
        with pytest.raises(SemanticError, match="declared twice"):
            check("register<bit<8>>[4] r;\nregister<bit<8>>[4] r;")

    def test_unknown_name_in_extent(self):
        with pytest.raises(SemanticError, match="neither a constant nor a symbolic"):
            check("register<bit<8>>[mystery] r;")

    def test_elastic_header_field_rejected(self):
        with pytest.raises(SemanticError, match="header fields cannot be elastic"):
            check("symbolic int n;\nheader h { bit<8>[n] xs; }")

    def test_unknown_action_call(self):
        with pytest.raises(SemanticError, match="unknown action"):
            check("control Ingress(inout metadata m) { apply { ghost(); } }")

    def test_action_arity_mismatch(self):
        with pytest.raises(SemanticError, match="takes 1 argument"):
            check(
                "action a(bit<8> x) { meta.y = x; }\n"
                "control Ingress(inout metadata m) { apply { a(); } }"
            )

    def test_missing_iteration_index(self):
        with pytest.raises(SemanticError, match="needs an iteration index"):
            check(
                "symbolic int n;\n"
                "action a()[int i] { meta.y = i; }\n"
                "control Ingress(inout metadata m) { apply { a(); } }"
            )

    def test_unexpected_iteration_index(self):
        with pytest.raises(SemanticError, match="takes no iteration index"):
            check(
                "action a() { meta.y = 1; }\n"
                "control Ingress(inout metadata m) { apply { a()[0]; } }"
            )

    def test_unknown_register_method(self):
        with pytest.raises(SemanticError, match="unknown register method"):
            check(
                "register<bit<8>>[4] r;\n"
                "control Ingress(inout metadata m) { apply { r.frob(1, 2); } }"
            )

    def test_register_method_arity(self):
        with pytest.raises(SemanticError, match="takes 3 argument"):
            check(
                "register<bit<8>>[4] r;\n"
                "control Ingress(inout metadata m) { apply { r.add_read(m.x, 0); } }"
            )

    def test_loop_inside_action_rejected(self):
        with pytest.raises(SemanticError, match="not allowed inside actions"):
            check(
                "symbolic int n;\n"
                "action a() { for (i < n) { meta.x = i; } }"
            )

    def test_table_with_unknown_action(self):
        with pytest.raises(SemanticError, match="unknown action"):
            check("table t { key = { m.x : exact; } actions = { ghost; } }")

    def test_assume_with_unknown_name(self):
        with pytest.raises(SemanticError, match="not a symbolic or constant"):
            check("assume bogus <= 4;")

    def test_utility_with_unknown_name(self):
        with pytest.raises(SemanticError, match="utility function references"):
            check("optimize bogus * 2;")

    def test_utility_may_take_a_min(self):
        # The layout linearises min() with an aux column; an assume and
        # any other function stay names that must be declared.
        check("symbolic int a; symbolic int b; optimize min(a * 2, b, 7);")
        with pytest.raises(SemanticError, match="references 'max'"):
            check("symbolic int a; symbolic int b; optimize max(a, b);")
        with pytest.raises(SemanticError, match="references 'bogus'"):
            check("symbolic int a; optimize min(a, bogus);")
        with pytest.raises(SemanticError, match="assume references 'min'"):
            check("symbolic int a; assume min(a, 4) <= 2;")

    def test_unknown_function_in_expression(self):
        with pytest.raises(SemanticError, match="unknown function"):
            check(
                "control Ingress(inout metadata m) { apply { m.x = frob(1); } }"
            )


class TestEvalStatic:
    def test_arithmetic(self):
        from repro.lang import Parser

        assert eval_static(Parser("2 * (3 + 4)").parse_expression(), {}) == 14
        assert eval_static(Parser("10 / 3").parse_expression(), {}) == 3
        assert eval_static(Parser("1 << 10").parse_expression(), {}) == 1024

    def test_names_from_env(self):
        from repro.lang import Parser

        assert eval_static(Parser("n * 2").parse_expression(), {"n": 21}) == 42

    def test_comparison_and_ternary(self):
        from repro.lang import Parser

        assert eval_static(Parser("3 < 4 ? 10 : 20").parse_expression(), {}) == 10

    def test_division_by_zero(self):
        from repro.lang import Parser

        with pytest.raises(SemanticError, match="division by zero"):
            eval_static(Parser("1 / 0").parse_expression(), {})

    def test_non_static_raises(self):
        from repro.lang import Parser

        with pytest.raises(SemanticError, match="not a compile-time constant"):
            eval_static(Parser("n + 1").parse_expression(), {})
