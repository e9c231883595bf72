"""The IR's trees are shared, so no phase after elaboration may change one.

``substitute`` clones only the nodes above a bound name, the elaborator
keeps the guards and action bodies it inlines, and the expansion memo
hands one tree to every instance of a (template, iteration): the
program's AST, the templates and the expansions share their subtrees.
The test below snapshots all of them the moment the IR is built and
holds a whole linked-NetCache compile to them: bounds, the layout build
and solve, assembly with codegen, the index-bounds check, the taint
verification, then a re-link and compiles on two more targets through
the same cached IR.
"""

from repro.analysis import ElasticSegment
from repro.apps import netcache_linked
from repro.core import CompileCache, CompileOptions, compile_linked
from repro.core import driver
from repro.lang import ast
from repro.lang.pretty import pretty_expr, pretty_program, pretty_stmt
from repro.pisa import tofino

from .test_layout_encoding import t6


def _pretty(node) -> str:
    if isinstance(node, ast.Program):
        return pretty_program(node)
    if isinstance(node, ast.Stmt):
        return pretty_stmt(node)
    return pretty_expr(node)


def _roots(program, ir) -> list:
    """The program, every template body and guard, every expansion."""
    roots = [program]
    for seg in ir.segments:
        templates = seg.templates if isinstance(seg, ElasticSegment) \
            else [seg.template]
        for tpl in templates:
            roots.extend(tpl.body)
            roots.append(tpl.guard)
    for expansion in ir._expansions.values():
        roots.extend(expansion.body)
        roots.append(expansion.guard)
    return [root for root in roots if root is not None]


def snapshot(program, ir) -> list:
    """Each root's text, its full ``repr`` (every field but ``loc``) and
    the id of every node under it."""
    return [(_pretty(root), repr(root), [id(node) for node in ast.walk(root)])
            for root in _roots(program, ir)]


def test_a_linked_compile_changes_no_shared_tree(monkeypatch):
    cache = CompileCache()
    linked = netcache_linked(with_routing=False, cache=cache)
    built = []
    build_ir = driver.build_ir

    def snapshotting_build_ir(info, entry):
        ir = build_ir(info, entry)
        built.append((ir, snapshot(linked.program, ir)))
        return ir

    monkeypatch.setattr(driver, "build_ir", snapshotting_build_ir)
    options = CompileOptions(cache=cache)
    first = compile_linked(linked, t6(), options)
    (ir, built_snapshot), = built
    assert first.ir is ir and first.verify is not None and first.p4_source
    # Roots are listed program, templates, expansions in memo order, so
    # what a compile expands comes after what was there before it.
    compiled_snapshot = snapshot(linked.program, ir)
    assert compiled_snapshot[:len(built_snapshot)] == built_snapshot
    assert len(compiled_snapshot) > len(built_snapshot)
    # Bounds, layout, codegen and checks again over the cached IR: a
    # re-link of the same modules (the module tier shares their trees)
    # and two targets whose bounds and layouts differ.
    relinked = netcache_linked(with_routing=False, cache=cache)
    for target in (t6(32), tofino()):
        again = compile_linked(relinked, target, options)
        assert again.ir is ir and not again.stats.layout_cached
    assert len(built) == 1
    after = snapshot(linked.program, ir)
    assert after[:len(compiled_snapshot)] == compiled_snapshot
    assert len(after) > len(compiled_snapshot)   # tofino unrolls further
