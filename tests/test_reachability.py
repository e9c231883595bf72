"""Every public name in ``src/repro`` is reached from an entry point.

``src`` holds what a user can run: the ``p4all`` console script
(``repro.cli:main``), ``python -m repro.eval``, the examples, the
benchmarks and the Python the CI workflow runs inline. Code that only a
test calls belongs under ``tests/``, next to the test; code that nothing
calls is deleted. This test reads the sources with ``ast`` (it imports
none of them and runs no clock) and flags each module-level public
function or class, and each ``__all__`` entry, that no reachable code
names.

A reference is an ``ast.Name`` or ``ast.Attribute`` that loads the name,
or an import alias of it, in a root or in reachable ``src`` code. A use
inside the name's own definition does not count, nor does its module's
``__all__``. Module-level code of every ``src`` module counts, since it
runs when the module is imported, but a module-level import there only
binds a name (a package ``__init__``'s re-export is one): it counts
once reachable code uses what it binds. Reachability is a fixpoint: the
body of a definition counts only once something reachable names the
definition, so a name that only unreachable code uses is unreachable
too. Names are matched by spelling, not by module, so the check errs
towards calling a name reachable.
"""

from __future__ import annotations

import ast
import re
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: The console script ``pyproject.toml`` installs (``repro.cli:main``).
#: ``python -m repro.eval`` is ``eval/__main__.py``'s module-level code.
ENTRY_NAMES = {"main"}

#: Public names no root reaches that stay in ``src``, each with why.
ALLOWLIST: dict[str, str] = {
    "flow_to_dot": "draws a verifier witness path as DOT; no CLI flag "
                   "prints it yet (tests/analysis/test_dot.py)",
    "witness_edges": "feeds graph_to_dot(flow_edges=) the witness hops; "
                     "no CLI flag draws them yet",
}

_HEREDOC = re.compile(r"python3? - <<'EOF'\n(.*?)\n\s*EOF\n", re.S)
_DASH_C = re.compile(r"python3? -c\s*\\?\s*'([^']*)'", re.S)


def ci_snippets(text: str) -> list[str]:
    """The Python the workflow runs inline: heredocs and ``python -c``."""
    return [textwrap.dedent(s) for s in _HEREDOC.findall(text)] + \
        [textwrap.dedent(s).strip() for s in _DASH_C.findall(text)]


def root_sources(root: Path) -> list[tuple[str, str]]:
    """``(label, source)`` of every root but the two entry points."""
    files = sorted(root.glob("examples/*.py")) \
        + sorted(root.glob("benchmarks/**/*.py"))
    sources = [(str(p.relative_to(root)), p.read_text()) for p in files]
    ci = root / ".github" / "workflows" / "ci.yml"
    if ci.exists():
        sources += [(f"ci.yml#{i}", s)
                    for i, s in enumerate(ci_snippets(ci.read_text()))]
    return sources


def references(node: ast.AST) -> set[str]:
    """The names ``node`` loads, or imports under any alias."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute) \
                and not isinstance(sub.ctx, ast.Store):
            found.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            found.update(a.name.rsplit(".", 1)[-1] for a in sub.names)
    return found


def _all_entries(stmt: ast.stmt) -> list[str] | None:
    if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in stmt.targets):
        return [e.value for e in stmt.value.elts]
    return None


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreachable(src: Path, roots: list[tuple[str, str]]) -> list[str]:
    """``path:name`` of every checked name in ``src`` no root reaches."""
    bodies: dict[str, list[set[str]]] = {}    # def name -> body references
    live: set[str] = set(ENTRY_NAMES)         # names reachable code loads
    checked: list[tuple[str, str]] = []
    for path in sorted(src.rglob("*.py")):
        label = str(path.relative_to(src.parent))
        for stmt in ast.parse(path.read_text(), label).body:
            entries = _all_entries(stmt)
            if entries is not None:
                checked += [(label, name) for name in entries]
            elif isinstance(stmt, _DEFS):
                bodies.setdefault(stmt.name, []).append(references(stmt))
                if not stmt.name.startswith("_"):
                    checked.append((label, stmt.name))
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:        # ``import a as b`` uses a
                    if alias.asname:            # once b is reached
                        bodies.setdefault(alias.asname, []).append(
                            {alias.name.rsplit(".", 1)[-1]})
            else:
                live |= references(stmt)
    for label, text in roots:
        live |= references(ast.parse(text, label))
    frontier = set(live)
    while frontier:
        reached: set[str] = set()
        for name in frontier:
            for body in bodies.pop(name, ()):
                reached |= body
        frontier = reached - live
        live |= frontier
    return sorted({f"{label}:{name}" for label, name in checked
                   if name not in live})


def test_every_public_name_in_src_is_reachable():
    roots = root_sources(ROOT)
    assert len(roots) >= 30           # examples, benchmarks and CI snippets
    found = unreachable(SRC, roots)
    assert [f for f in found if f.split(":")[1] not in ALLOWLIST] == []


def test_the_allowlist_is_short_needed_and_explained():
    assert len(ALLOWLIST) <= 20
    assert all(reason.strip() for reason in ALLOWLIST.values())
    flagged = {f.split(":")[1] for f in unreachable(SRC, root_sources(ROOT))}
    assert set(ALLOWLIST) <= flagged  # an entry that is reached goes


def test_ci_snippets_are_found():
    text = ("run: python -c 'from repro.x import a; a()'\n"
            "run: |\n"
            "  python - <<'EOF'\n"
            "  from repro.y import b\n"
            "  EOF\n")
    assert ci_snippets(text) == ["from repro.y import b",
                                 "from repro.x import a; a()"]


def test_a_planted_unreferenced_function_is_caught(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "sub" / "__init__.py").write_text(
        "from .mod import used, planted, helper\n"
        "__all__ = ['used', 'planted', 'helper']\n")
    (pkg / "sub" / "mod.py").write_text(
        "def used():\n    return 1\n\n"
        "def planted():\n    return helper() + planted()\n\n"
        "def helper():\n    return 2\n")
    roots = [("example.py", "from repro.sub import used\nused()\n")]
    assert unreachable(pkg, roots) == [
        "repro/sub/__init__.py:helper", "repro/sub/__init__.py:planted",
        "repro/sub/mod.py:helper", "repro/sub/mod.py:planted"]
    roots.append(("bench.py", "import repro.sub as s\ns.planted()\n"))
    assert unreachable(pkg, roots) == []
