"""The frozen end-to-end benchmark still finds what it uses of ``repro``.

``benchmarks/e2e`` is run from its own checkout against this package,
and it is not edited along with it. A name it imports that a change
deletes, a keyword it passes that a signature drops, or a config field
it reads that a dataclass loses would make every benchmark run fail,
and only the slow e2e smoke would notice. This test reads the
benchmark's modules with ``ast`` (it imports none of them and runs no
clock) and resolves each of those uses against the package.

The figure suite (``benchmarks/bench_fig*.py``), the ablations and the
examples are checked the same way: a change that moves a name they
import out of ``src`` would otherwise surface only in CI's slower jobs.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
E2E = ROOT / "benchmarks" / "e2e"


def _resolve(module: str, name: str):
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")     # a submodule


def _is_config(obj) -> bool:
    return isinstance(obj, type) and dataclasses.is_dataclass(obj)


def _has_field(cls, attr: str) -> bool:
    return attr in {f.name for f in dataclasses.fields(cls)} \
        or hasattr(cls, attr)


def _accepts(obj, keyword: str) -> bool:
    try:
        params = inspect.signature(obj).parameters
    except (TypeError, ValueError):     # no signature to check against
        return True
    return keyword in params or any(
        p.kind is p.VAR_KEYWORD for p in params.values())


def problems_in(path: Path) -> tuple[int, list[str]]:
    """``(uses checked, what no longer resolves)`` in one module."""
    tree = ast.parse(path.read_text(), str(path))
    names: dict[str, object] = {}
    problems: list[str] = []
    checked = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                checked += 1
                try:
                    names[alias.asname or alias.name] = _resolve(
                        node.module, alias.name)
                except ImportError:
                    problems.append(f"{path.name}:{node.lineno}: "
                                    f"from {node.module} import {alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in names:
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                checked += 1
                if not _accepts(names[node.func.id], keyword.arg):
                    problems.append(f"{path.name}:{node.lineno}: "
                                    f"{node.func.id}({keyword.arg}=)")
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call) \
                and isinstance(node.value.func, ast.Name) \
                and _is_config(names.get(node.value.func.id)):
            # A field read off a default config, ``RuntimeConfig().x``.
            checked += 1
            if not _has_field(names[node.value.func.id], node.attr):
                problems.append(f"{path.name}:{node.lineno}: "
                                f"{node.value.func.id}().{node.attr}")
    return checked, problems


def _check_all(paths: list[Path]) -> tuple[int, list[str]]:
    checked, problems = 0, []
    for path in paths:
        n, found = problems_in(path)
        checked += n
        problems += found
    return checked, problems


def test_every_repro_use_of_the_benchmark_resolves():
    paths = sorted(E2E.glob("*.py"))
    assert paths
    checked, problems = _check_all(paths)
    assert not problems
    assert checked >= 40          # the benchmark does use the package


def test_every_repro_use_of_the_figures_ablations_and_examples_resolves():
    paths = sorted(ROOT.glob("benchmarks/bench_fig*.py")) \
        + sorted(ROOT.glob("benchmarks/ablations/*.py")) \
        + sorted(ROOT.glob("examples/*.py"))
    assert len(paths) >= 20
    checked, problems = _check_all(paths)
    assert not problems
    assert checked >= 60


def test_a_dropped_name_or_keyword_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro.core import compile_source_greedy, no_such_name\n"
        "from repro.runtime import RuntimeConfig\n"
        "RuntimeConfig(window_packets=1, no_such_field=2)\n"
        "RuntimeConfig().hot_threshold\n"
        "RuntimeConfig().no_such_field\n")
    _, problems = problems_in(probe)
    assert problems == [
        "probe.py:1: from repro.core import no_such_name",
        "probe.py:3: RuntimeConfig(no_such_field=)",
        "probe.py:5: RuntimeConfig().no_such_field",
    ]
