"""Structured solver-timeout surfacing and the greedy compile.

A solver time-limit expiry used to "succeed" with every symbol at zero —
a silently unconfigured pipeline. Now: no incumbent at the limit raises
a structured :class:`LayoutTimeoutError`; an incumbent is kept and
tagged ``SolveStatus.TIMEOUT``; and ``compile_source_greedy``
compiles through the first-fit heuristic without the ILP at all.
"""

import pytest

from repro.core import (
    CompileOptions,
    LayoutTimeoutError,
    compile_source,
    compile_source_greedy,
    validate_layout,
)
from repro.ilp import SolveStatus
from repro.pisa import Pipeline, Packet
from repro.structures import CMS_SOURCE


class TestStructuredTimeout:
    def test_no_incumbent_raises_layout_timeout(self, small8):
        with pytest.raises(LayoutTimeoutError) as excinfo:
            compile_source(
                CMS_SOURCE, small8,
                options=CompileOptions(time_limit=1e-5),
            )
        err = excinfo.value
        assert err.time_limit == pytest.approx(1e-5)
        assert err.backend
        assert "time limit" in str(err)

    def test_generous_limit_compiles_normally(self, small8):
        compiled = compile_source(
            CMS_SOURCE, small8, options=CompileOptions(time_limit=300.0)
        )
        assert compiled.solution.status is SolveStatus.OPTIMAL
        assert compiled.symbol_values["cms_rows"] >= 1

    def test_timeout_status_has_usable_flag(self):
        assert SolveStatus.TIMEOUT.usable
        assert SolveStatus.OPTIMAL.usable
        assert SolveStatus.FEASIBLE.usable
        assert not SolveStatus.INFEASIBLE.usable


class TestGreedyBackend:
    def test_compile_source_greedy(self, small8):
        compiled = compile_source_greedy(CMS_SOURCE, small8)
        assert compiled.solution.backend == "greedy"
        assert compiled.solution.status is SolveStatus.FEASIBLE
        assert compiled.units
        assert compiled.symbol_values["cms_rows"] >= 1
        validate_layout(compiled)

    def test_greedy_artifact_executes(self, small8):
        compiled = compile_source_greedy(CMS_SOURCE, small8)
        pipe = Pipeline(compiled)
        for _ in range(3):
            result = pipe.process(Packet(fields={"flow_id": 7}))
        assert result.get("meta.cms_min") >= 3

    def test_greedy_never_beats_ilp(self, small8, compiled_cms):
        greedy = compile_source_greedy(CMS_SOURCE, small8)
        assert greedy.solution.objective <= compiled_cms.solution.objective
