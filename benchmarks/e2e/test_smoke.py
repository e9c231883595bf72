"""Smoke test of the benchmark itself: every workload at ``--scale 0.02``,
untraced and traced, emits exactly the metrics BENCHMARK.json declares,
finite, with no failed operation.

Collected by ``pytest benchmarks/e2e``; not part of tier-1
(``testpaths = ["tests"]``), which stays a test of the program.
"""

import json
import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--scale", "0.02", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])


@pytest.fixture(scope="module")
def results():
    """All ten runs, two at a time (one per core of the reference box)."""
    jobs = [(w, trace) for w in WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(jobs, pool.map(lambda job: _run(*job), jobs)))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_emits_declared_metrics(results, workload, trace):
    result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for meta in declared:
        cell = result["metrics"][meta["name"]]
        assert cell["unit"] == meta["unit"]
        assert math.isfinite(cell["value"]), meta["name"]
        if not trace:
            assert cell["value"] > 0, meta["name"]


def _alive_in_session(sid: int) -> list[str]:
    """Command lines of the live processes of session ``sid``."""
    alive = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_text()
        except OSError:
            continue
        state, _ppid, _pgrp, session = stat.rsplit(")", 1)[1].split()[:4]
        if int(session) == sid and state != "Z":
            alive.append(cmdline.replace("\0", " "))
    return alive


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_leaves_no_process():
    """The pooled workload starts workers and multiprocessing's resource
    tracker; none may be alive the moment the run's process has ended."""
    done = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "cms-sharded-w2",
         "--seed", "7", "--scale", "0.02"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    assert done.wait(timeout=120) == 0
    assert _alive_in_session(done.pid) == []


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(WORKLOADS) <= 8
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128
