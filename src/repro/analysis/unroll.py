"""Upper bounds for loop unrolling (paper §4.2).

For each symbolic value ``v`` that bounds loops, the compiler unrolls
those loops K = 1, 2, ... times, builds the dependency graph G_v over the
unrolled instances, and stops when the program provably cannot fit:

1. the longest simple path in G_v exceeds the stage count S, or
2. the total ALU demand exceeds the pipeline budget (F + L) · S.

Following Figure 9 (where K = 3 makes the path too long "hence the loop
is unrolled twice"), the returned bound is the largest K at which neither
criterion fires.

Two further refinements — both conservative in the safe direction and
individually switchable — tighten bounds the ILP could never use anyway:

3. PHV: K iterations of elastic metadata cannot exceed ``P − P_fixed``;
4. memory: K iterations each need at least one cell of every register
   family they instantiate, within the pipeline's total memory.

Numeric caps from ``assume`` clauses (§3.2.1) short-circuit the search.

G_v is grown, not rebuilt: going from K to K + 1 adds iteration K of
every loop over ``v`` (:func:`~repro.analysis.ir.instantiate_iteration`)
to one :class:`~repro.analysis.dependencies.DependencyGraphBuilder`,
which groups and classifies only the new instances. The graph at each
K is the one :func:`~repro.analysis.dependencies.build_dependency_graph`
builds from scratch over the same instances, node numbers included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..lang.symbols import ProgramInfo, eval_static
from ..lang.errors import SemanticError
from ..lang import ast
from ..pisa.resources import TargetSpec
from .assumes import extract_numeric_bounds
from .dependencies import DependencyGraphBuilder
from .ir import ProgramIR, instantiate_iteration

__all__ = ["BoundResult", "UnrollBounds", "compute_upper_bounds", "UnrollOptions"]

# Safety cap when no criterion ever fires (degenerate loop bodies).
_HARD_CAP = 256


@dataclass(frozen=True)
class UnrollOptions:
    """Switches for the bound computation (ablation hooks)."""

    use_phv_criterion: bool = True
    use_memory_criterion: bool = True
    exclusion_as_precedence: bool = False
    hard_cap: int = _HARD_CAP


@dataclass
class BoundResult:
    """Outcome for one symbolic value."""

    symbolic: str
    bound: int
    criterion: str           # which test fired ('stages', 'alus', 'phv', 'memory', 'assume', 'cap')
    tested_k: int = 0        # the K at which the test fired (bound + 1 usually)
    path_lengths: list[int] = field(default_factory=list)  # per-K longest path


@dataclass
class UnrollBounds:
    """Bounds for all loop symbolics of a program."""

    results: dict[str, BoundResult]

    def bound(self, symbolic: str) -> int:
        return self.results[symbolic].bound

    def as_counts(self) -> dict[str, int]:
        return {sym: res.bound for sym, res in self.results.items()}


def _elastic_metadata_bits_per_iteration(info: ProgramInfo, symbolic: str) -> int:
    """PHV bits one iteration of ``symbolic`` adds (elastic arrays sized by it)."""
    bits = 0
    for fd in info.metadata.values():
        if fd.array_size is None:
            continue
        names = {
            n.ident for n in ast.walk(fd.array_size) if isinstance(n, ast.Name)
        }
        if symbolic in names:
            bits += fd.width
    return bits


def _min_register_bits_per_iteration(info: ProgramInfo, symbolic: str) -> int:
    """Minimum register bits one iteration needs (≥ 1 cell per family)."""
    bits = 0
    for reg in info.registers.values():
        count = reg.decl.count
        if count is None:
            continue
        names = {n.ident for n in ast.walk(count) if isinstance(n, ast.Name)}
        if symbolic in names:
            bits += reg.cell_bits
    return bits


def _upper_bound_for(
    ir: ProgramIR,
    symbolic: str,
    target: TargetSpec,
    options: UnrollOptions,
    assume_cap: int | None,
) -> BoundResult:
    info = ir.info
    meta_bits = _elastic_metadata_bits_per_iteration(info, symbolic)
    reg_bits = _min_register_bits_per_iteration(info, symbolic)
    phv_budget = target.phv_bits - info.metadata_fixed_bits()
    cap = options.hard_cap if assume_cap is None else min(assume_cap, options.hard_cap)
    path_lengths: list[int] = []
    # G_v grows by one iteration per K: only the new instances are
    # grouped and classified, against the nodes already there.
    builder = DependencyGraphBuilder(options.exclusion_as_precedence)
    alus = 0

    k = 0
    while k < cap:
        k_next = k + 1
        # Fast arithmetic criteria first (no graph needed).
        if options.use_phv_criterion and meta_bits > 0 \
                and k_next * meta_bits > phv_budget:
            return BoundResult(symbolic, k, "phv", k_next, path_lengths)
        if options.use_memory_criterion and reg_bits > 0 \
                and k_next * reg_bits > target.total_memory_bits:
            return BoundResult(symbolic, k, "memory", k_next, path_lengths)

        added = instantiate_iteration(ir, symbolic, k, cap)
        if not added:
            return BoundResult(symbolic, 0, "no-loops", 0, [])
        builder.add(added)
        path = builder.graph().longest_simple_path(cutoff=target.stages)
        path_lengths.append(path)
        if path > target.stages:
            return BoundResult(symbolic, max(k, 1), "stages", k_next, path_lengths)
        alus += sum(target.hf(i.cost) + target.hl(i.cost) for i in added)
        if alus > target.total_alus:
            return BoundResult(symbolic, max(k, 1), "alus", k_next, path_lengths)
        k = k_next

    criterion = "assume" if assume_cap is not None and cap == assume_cap else "cap"
    return BoundResult(symbolic, k, criterion, k, path_lengths)


def compute_upper_bounds(
    ir: ProgramIR,
    target: TargetSpec,
    options: UnrollOptions | None = None,
) -> UnrollBounds:
    """Compute unroll bounds for every loop symbolic in the program.

    Nested-loop note: elaboration forbids directly nested for-loops, so
    each symbolic is analyzed with every *other* symbolic held at one
    iteration — the paper's "most conservative assumption about the other
    loops".
    """
    options = options or UnrollOptions()
    numeric = extract_numeric_bounds(ir.info)
    results: dict[str, BoundResult] = {}
    for symbolic in ir.loop_symbolics:
        cap = None
        if symbolic in numeric and numeric[symbolic].upper is not None:
            cap = max(numeric[symbolic].upper, 1)
        results[symbolic] = _upper_bound_for(ir, symbolic, target, options, cap)
    return UnrollBounds(results=results)
