"""Elaboration and effect-analysis tests."""

import pytest

from repro.lang import (
    SemanticError, ast, check_program, parse_program, pretty_expr,
)
from repro.analysis import (
    ElasticSegment,
    InelasticSegment,
    UpdateKind,
    build_ir,
    instantiate,
    substitute,
)


def make_ir(source: str, entry: str = "Ingress"):
    return build_ir(check_program(parse_program(source)), entry)


CMS_LIKE = """
symbolic int rows;
struct metadata {
    bit<32> flow_id;
    bit<32>[rows] count;
    bit<32> min;
}
register<bit<32>>[256][rows] sk;
action touch()[int i] {
    sk[i].add_read(meta.count[i], meta.flow_id, 1);
}
action pick()[int i] {
    meta.min = meta.count[i];
}
control Ingress(inout metadata meta) {
    apply {
        meta.min = 4294967295;
        for (i < rows) { touch()[i]; }
        for (i < rows) {
            if (meta.count[i] < meta.min) { pick()[i]; }
        }
    }
}
"""


class TestElaboration:
    def test_segment_structure(self):
        ir = make_ir(CMS_LIKE)
        kinds = [type(s).__name__ for s in ir.segments]
        assert kinds == ["InelasticSegment", "ElasticSegment", "ElasticSegment"]
        assert ir.loop_symbolics == ["rows"]

    def test_nested_control_inlining(self):
        ir = make_ir(
            """
            struct metadata { bit<32> x; }
            control Inner(inout metadata meta) {
                apply { meta.x = 1; }
            }
            control Ingress(inout metadata meta) {
                apply { Inner.apply(meta); }
            }
            """
        )
        assert len(ir.segments) == 1
        assert isinstance(ir.segments[0], InelasticSegment)

    def test_missing_entry_control(self):
        with pytest.raises(SemanticError, match="no control named"):
            make_ir("struct metadata { bit<32> x; }", entry="Ingress")

    def test_constant_bound_loop_unrolls_statically(self):
        ir = make_ir(
            """
            const int N = 3;
            struct metadata { bit<32> x; bit<32>[N] y; }
            register<bit<8>>[16][N] regs;
            action t()[int i] { regs[i].write(meta.x, i); }
            control Ingress(inout metadata meta) {
                apply { for (i < N) { t()[i]; } }
            }
            """
        )
        assert all(isinstance(s, InelasticSegment) for s in ir.segments)
        instances = instantiate(ir, {})
        assert [i.name for i in instances] == ["t_0", "t_1", "t_2"]
        assert [sorted(i.registers) for i in instances] == [
            [("regs", 0)], [("regs", 1)], [("regs", 2)],
        ]

    def test_loop_body_else_keeps_the_enclosing_guard(self):
        ir = make_ir(
            """
            symbolic int n;
            struct metadata { bit<32> a; bit<32> b; bit<32>[n] c; }
            control Ingress(inout metadata meta) {
                apply {
                    for (i < n) {
                        if (meta.a == 1) {
                            if (meta.b == 2) { meta.c[i] = 1; }
                            else { meta.c[i] = 2; }
                        }
                    }
                }
            }
            """
        )
        then_unit, else_unit = ir.segments[0].templates
        assert pretty_expr(then_unit.guard) == "meta.a == 1 && meta.b == 2"
        assert pretty_expr(else_unit.guard) == "meta.a == 1 && !(meta.b == 2)"
        instance = next(i for i in instantiate(ir, {"n": 1})
                        if i.name == else_unit.name)
        assert "meta.a" in instance.reads

    def test_directly_nested_loops_rejected(self):
        with pytest.raises(SemanticError, match="nested"):
            make_ir(
                """
                symbolic int a;
                symbolic int b;
                struct metadata { bit<32> x; }
                control Ingress(inout metadata meta) {
                    apply {
                        for (i < a) { for (j < b) { meta.x = 1; } }
                    }
                }
                """
            )


class TestInstantiation:
    def test_each_iteration_is_expanded_once_per_ir(self, monkeypatch):
        # A whole compile — the bound loop's K = 1, 2, …, the layout
        # model, the index check, the taint passes — expands each
        # (template, iteration) of its IR at most once.
        import dataclasses
        from collections import Counter

        from repro.analysis import ir as ir_module
        from repro.apps import netcache_linked
        from repro.core import compile_linked
        from repro.pisa import tofino

        expanded = Counter()
        expand = ir_module._expand

        def counting(ir, tpl, iteration):
            expanded[(id(ir), id(tpl), iteration)] += 1
            return expand(ir, tpl, iteration)

        monkeypatch.setattr(ir_module, "_expand", counting)
        compile_linked(netcache_linked(with_routing=False),
                       dataclasses.replace(tofino(), stages=6,
                                           memory_bits_per_stage=65536))
        assert len(expanded) > 20
        assert max(expanded.values()) == 1

    def test_instances_are_equal_but_not_shared(self):
        ir = make_ir(CMS_LIKE)
        first, again = instantiate(ir, {"rows": 2}), instantiate(ir, {"rows": 2})
        assert first == again
        for a, b in zip(first, again):
            assert a is not b
            assert a.commutative is not b.commutative
        # A smaller count is a prefix of each loop, renumbered.
        fewer = instantiate(ir, {"rows": 1})
        assert [i.label for i in fewer] == ["op1", "touch[0]", "pick[0]"]
        assert [i.uid for i in fewer] == [0, 1, 2]

    def test_iterations_share_their_unbound_subtrees(self):
        ir = make_ir(CMS_LIKE)
        touch0, touch1 = (i for i in instantiate(ir, {"rows": 2})
                          if i.name == "touch")
        # sk[i].add_read(meta.count[i], meta.flow_id, 1)
        call0, call1 = touch0.body[0].call, touch1.body[0].call
        assert call0 is not call1
        assert call0.args[0] is not call1.args[0]      # meta.count[i]
        assert call0.args[0].base is call1.args[0].base  # meta.count
        assert call0.args[1] is call1.args[1]          # meta.flow_id
        assert call0.func.name == call1.func.name == "add_read"

    def test_iteration_instances_are_numbered_as_at_the_count(self):
        from repro.analysis.ir import instantiate_iteration

        ir = make_ir(CMS_LIKE)
        full = [i for i in instantiate(ir, {"rows": 3}) if i.symbolic]
        one_by_one = [inst for k in range(3)
                      for inst in instantiate_iteration(ir, "rows", k, 3)]
        assert sorted(one_by_one, key=lambda i: i.source_order) == full
        assert [i.uid for i in sorted(one_by_one, key=lambda i: i.uid)] == \
            [i.uid for i in full]

    def test_iteration_substitution(self):
        ir = make_ir(CMS_LIKE)
        instances = instantiate(ir, {"rows": 2})
        touch1 = next(i for i in instances if i.label == "touch[1]")
        assert ("sk", 1) in touch1.registers
        assert "meta.count[1]" in touch1.writes

    def test_program_order_preserved(self):
        ir = make_ir(CMS_LIKE)
        instances = instantiate(ir, {"rows": 2})
        labels = [i.label for i in instances]
        assert labels == ["op1", "touch[0]", "touch[1]", "pick[0]", "pick[1]"]
        orders = [i.source_order for i in instances]
        assert orders == sorted(orders)

    def test_guard_specialized_per_iteration(self):
        ir = make_ir(CMS_LIKE)
        pick0 = next(
            i for i in instantiate(ir, {"rows": 1}) if i.label == "pick[0]"
        )
        assert pick0.guard is not None
        assert "meta.count[0]" in pick0.reads
        assert "meta.min" in pick0.reads

    def test_missing_count_defaults_to_one(self):
        ir = make_ir(CMS_LIKE)
        instances = instantiate(ir, {})
        assert sum(1 for i in instances if i.name == "touch") == 1


class TestEffects:
    def test_costs(self):
        ir = make_ir(CMS_LIKE)
        instances = instantiate(ir, {"rows": 1})
        touch = next(i for i in instances if i.name == "touch")
        assert touch.cost.stateful_ops == 1
        pick = next(i for i in instances if i.name == "pick")
        assert pick.cost.stateful_ops == 0
        assert pick.cost.stateless_ops == 1

    def test_hash_counted(self):
        ir = make_ir(
            """
            struct metadata { bit<32> a; bit<32> b; }
            control Ingress(inout metadata meta) {
                apply { meta.b = hash(1, meta.a); }
            }
            """
        )
        (inst,) = instantiate(ir, {})
        assert inst.cost.hash_ops == 1

    def test_guarded_min_classified(self):
        ir = make_ir(CMS_LIKE)
        pick = next(
            i for i in instantiate(ir, {"rows": 1}) if i.name == "pick"
        )
        assert pick.commutative["meta.min"] == UpdateKind.MIN

    def test_increment_classified(self):
        ir = make_ir(
            """
            struct metadata { bit<32> acc; bit<32> x; }
            control Ingress(inout metadata meta) {
                apply { meta.acc = meta.acc + meta.x; }
            }
            """
        )
        (inst,) = instantiate(ir, {})
        assert inst.commutative["meta.acc"] == UpdateKind.ADD

    def test_or_fold_classified(self):
        ir = make_ir(
            """
            struct metadata { bit<1> hit; bit<32> x; }
            control Ingress(inout metadata meta) {
                apply { meta.hit = meta.hit | (meta.x == 3 ? 1 : 0); }
            }
            """
        )
        (inst,) = instantiate(ir, {})
        assert inst.commutative["meta.hit"] == UpdateKind.OR

    def test_plain_overwrite_classified(self):
        ir = make_ir(
            """
            struct metadata { bit<32> a; bit<32> b; }
            control Ingress(inout metadata meta) {
                apply { meta.a = meta.b; }
            }
            """
        )
        (inst,) = instantiate(ir, {})
        assert inst.commutative["meta.a"] == UpdateKind.PLAIN


class TestSubstitute:
    def test_name_replacement_is_deep(self):
        expr = parse_program(
            "control C(inout metadata m) { apply { m.a = i + i * 2; } }"
        ).control("C").apply.stmts[0]
        replaced = substitute(expr, {"i": ast.IntLit(value=3)})
        names = [n.ident for n in ast.walk(replaced) if isinstance(n, ast.Name)]
        assert "i" not in names

    def test_unbound_subtrees_are_shared(self):
        stmt = parse_program(
            "control C(inout metadata m) { apply { m.a = m.b + i; } }"
        ).control("C").apply.stmts[0]
        three = ast.IntLit(value=3)
        # Nothing bound: the very same tree comes back.
        assert substitute(stmt, {"j": three}) is stmt
        # Only the path down to the bound name is new.
        replaced = substitute(stmt, {"i": three})
        assert replaced is not stmt and replaced.value is not stmt.value
        assert replaced.target is stmt.target
        assert replaced.value.left is stmt.value.left
        assert replaced.value.right is three
        assert replaced.loc is stmt.loc

    def test_original_ast_untouched(self):
        stmt = parse_program(
            "control C(inout metadata m) { apply { m.a = i; } }"
        ).control("C").apply.stmts[0]
        substitute(stmt, {"i": ast.IntLit(value=1)})
        assert isinstance(stmt.value, ast.Name)
