"""Every repository path the CI workflow names still exists.

A step that runs a deleted benchmark or test fails only on the CI
runner, after the merge. This test reads ``.github/workflows/ci.yml`` as
text (no YAML parser is a dependency) and resolves each
``benchmarks/``, ``tests/``, ``examples/`` and ``src/`` path in it, glob
patterns included, and each dotted ``tests.`` module it imports or runs.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CI = ROOT / ".github" / "workflows" / "ci.yml"

_PATH = re.compile(r"(?<![\w/.])((?:benchmarks|tests|examples|src)/[\w./*\-]+)")
_MODULE = re.compile(r"(?<![\w/.])(tests(?:\.\w+)+)")


def named_paths(text: str) -> list[str]:
    """The repository paths ``text`` names, dotted modules as files."""
    paths = {p.rstrip(".") for p in _PATH.findall(text)}
    paths |= {m.replace(".", "/") + ".py" for m in _MODULE.findall(text)}
    return sorted(paths)


def missing(text: str, root: Path) -> list[str]:
    return [p for p in named_paths(text) if not any(root.glob(p))]


def test_every_path_in_the_workflow_exists():
    paths = named_paths(CI.read_text())
    assert len(paths) >= 15            # the workflow does name paths
    assert missing(CI.read_text(), ROOT) == []


def test_a_deleted_path_is_caught(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench_fig01.py").write_text("")
    text = ("run: python -m pytest benchmarks/bench_fig0*.py "
            "benchmarks/bench_gone.py\n"
            "from tests.core.test_gone import CALLS\n")
    assert missing(text, tmp_path) == [
        "benchmarks/bench_gone.py", "tests/core/test_gone.py"]
