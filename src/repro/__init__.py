"""P4All: elastic switch programming (HotNets 2020) — full reproduction.

Subpackages:

* :mod:`repro.lang` — the P4All language front end (lexer/parser/AST);
* :mod:`repro.analysis` — dependency analysis and loop-unrolling bounds;
* :mod:`repro.ilp` — MILP modeling layer with two exact solvers;
* :mod:`repro.core` — the layout ILP, utility linearization, code
  generation, and the end-to-end compiler driver;
* :mod:`repro.pisa` — the PISA target model and pipeline simulator (the
  stand-in for the Tofino);
* :mod:`repro.structures` — reusable elastic data-structure library;
* :mod:`repro.apps` — NetCache, SketchLearn, PRECISION, ConQuest;
* :mod:`repro.workloads` — Zipf key traces and heavy-tail flow traces;
* :mod:`repro.eval` — one harness per paper table/figure.

Quickstart::

    from repro import compile_source, tofino, Pipeline, Packet

    program = open("sketch.p4all").read()
    compiled = compile_source(program, tofino())
    print(compiled.symbol_values)      # the chosen elastic sizes
    print(compiled.p4_source)          # the concrete P4 program

    pipe = Pipeline(compiled)
    pipe.process(Packet(fields={"flow_id": 42}))
"""

from .core import (
    CompiledProgram,
    CompileError,
    CompileOptions,
    compile_file,
    compile_source,
    layout_report,
)
from .pisa import Packet, Pipeline, TargetSpec, get_target, tofino

__version__ = "1.0.0"

__all__ = [
    "CompiledProgram",
    "CompileError",
    "CompileOptions",
    "compile_file",
    "compile_source",
    "layout_report",
    "Packet",
    "Pipeline",
    "TargetSpec",
    "get_target",
    "tofino",
    "__version__",
]
