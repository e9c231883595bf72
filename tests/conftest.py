"""Shared fixtures.

Compilation fixtures are session-scoped: the compiler is deterministic,
so tests can share compiled artifacts safely (pipelines built from them
are per-test, since pipelines hold mutable register state).
"""

from __future__ import annotations

import contextlib

import pytest

from repro.core import CompiledProgram, compile_source
from repro.pisa import Pipeline, small_target, toy_three_stage
from repro.structures import CMS_SOURCE

try:  # hypothesis is a test-only dependency (see pyproject dev extras)
    from hypothesis import HealthCheck, settings as _hyp_settings

    # Registered at import time so `--hypothesis-profile=ci` resolves.
    # The CI verify-bench job runs the property suite under this profile:
    # more examples than the local default, no deadline flakiness.
    _hyp_settings.register_profile(
        "ci",
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
        derandomize=True,
    )
except ImportError:  # pragma: no cover
    pass


@pytest.fixture(scope="session")
def toy3():
    return toy_three_stage()


@pytest.fixture(scope="session")
def small8():
    """8-stage small target used across compile tests."""
    return small_target(stages=8, memory_kb=64)


@pytest.fixture(scope="session")
def compiled_cms(small8) -> CompiledProgram:
    """The standalone library CMS compiled for the small 8-stage target."""
    return compile_source(CMS_SOURCE, small8, source_name="cms")


@pytest.fixture()
def cms_pipeline(compiled_cms) -> Pipeline:
    """A fresh pipeline (clean registers) per test."""
    return Pipeline(compiled_cms)


@contextlib.contextmanager
def bb_solves():
    """Inside the block every ``ilp.solve`` runs the from-scratch branch
    and bound instead of HiGHS: the one solve seam, swapped, so whole
    compiles can be cross-checked against the independent solver. The
    branch and bound always searches to zero gap (``rel_gap`` is
    dropped)."""
    from repro.ilp import solver
    from repro.ilp.solver_bb import solve_branch_and_bound

    def bb(model, time_limit=None, warm_start=None, fixed=None,
           rel_gap=None):
        return solve_branch_and_bound(model, time_limit=time_limit,
                                      warm_start=warm_start, fixed=fixed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "solve_scipy", bb)
        yield


@pytest.fixture()
def bb_solver():
    """The whole test solves with the branch and bound (:func:`bb_solves`)."""
    with bb_solves():
        yield
