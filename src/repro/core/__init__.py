"""P4All compiler core — the paper's primary contribution.

Public entry points:

* :func:`compile_source` / :func:`compile_file` — full compilation
  (parse → analyze → bound → ILP → codegen);
* :class:`CompileOptions` — the compiler's entry point, time limit,
  exclusion mode and cache;
* :class:`CompiledProgram` — the result artifact (symbol assignment,
  stage map, register allocation, concrete P4, timings);
* :func:`layout_report` — Figure-7-style stage map rendering;
* :func:`greedy_layout` — the greedy first-fit baseline for ablations;
* :class:`CompileCache` — phase/layout memoization for fast elastic
  recompiles (wired in via :attr:`CompileOptions.cache`).
"""

from .cache import CacheStats, CompileCache, source_fingerprint
from .codegen import generate_p4
from .driver import (
    CompileOptions,
    compile_file,
    compile_linked,
    compile_linked_greedy,
    compile_source,
    compile_source_greedy,
)
from .errors import (
    CompileError,
    LayoutInfeasibleError,
    LayoutTimeoutError,
    UtilityError,
)
from .greedy import GreedyResult, greedy_layout
from .layout import LayoutBuilder, LayoutModel, LayoutSolution
from .program import CompiledProgram, CompileStats, PlacedUnit, RegisterAlloc
from .report import (
    ModuleAttribution,
    layout_report,
    module_attribution,
    module_report,
    stats_report,
    summary_line,
)
from .tablemem import table_memory_bits
from .validate import (
    LayoutValidationError,
    TaintMismatchError,
    VerifyResult,
    validate_layout,
    verify_taint,
)

__all__ = [
    "CacheStats",
    "CompileCache",
    "source_fingerprint",
    "generate_p4",
    "CompileOptions",
    "compile_file",
    "compile_linked",
    "compile_linked_greedy",
    "compile_source",
    "compile_source_greedy",
    "CompileError",
    "LayoutInfeasibleError",
    "LayoutTimeoutError",
    "UtilityError",
    "GreedyResult",
    "greedy_layout",
    "LayoutBuilder",
    "LayoutModel",
    "LayoutSolution",
    "CompiledProgram",
    "CompileStats",
    "PlacedUnit",
    "RegisterAlloc",
    "ModuleAttribution",
    "layout_report",
    "module_attribution",
    "module_report",
    "stats_report",
    "summary_line",
    "table_memory_bits",
    "LayoutValidationError",
    "TaintMismatchError",
    "VerifyResult",
    "validate_layout",
    "verify_taint",
]
