"""Execution-plan IR for the compiled pipeline engine.

A :class:`PipelinePlan` is what the one-time lowering pass in
:mod:`repro.pisa.compiled` produces from a placed program: per active
stage a :class:`StagePlan` — the generated function that runs it, with
every static decision (field keys, register instances, hash seeds,
constant subexpressions) already resolved — so the per-packet hot loop
does no AST walking, no name resolution, and no full-PHV snapshots.

Generated functions take ``(phv, hits)``: the packet's committed PHV
dict, mutated in place, and the dict collecting its table-hit flags.
Stage semantics are preserved without copying: commits are deferred to
stage exit, so reads against the live ``phv`` dict during a stage *are*
stage-entry reads. The per-stage read/write sets (lifted from the
dependency analysis) document exactly which fields a stage touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = ["StagePlan", "PipelinePlan", "plan_taint"]


@dataclass(frozen=True)
class StagePlan:
    """One active stage: its units, touched fields and generated code."""

    stage: int
    units: tuple                     # unit labels, in placement order
    reads: frozenset                 # static read-set (field keys)
    writes: frozenset                # static write-set (field keys)
    run: Callable = field(repr=False)  # generated ``fn(phv, hits)``
    buffered: str = ""               # why not straight-line ("": it is)


@dataclass
class PipelinePlan:
    """The compiled program's execution plan.

    ``fast_run(phv, hits)`` runs one packet through every stage — the
    concatenation of the stages' generated code, each of which is also
    callable alone as :attr:`StagePlan.run` (the vector engine runs its
    scalar islands that way). ``fast_source`` keeps the generated module
    for inspection; ``lowering`` is the resolver it was generated
    against, which the vector lowerer shares.
    """

    stages: list[StagePlan]
    masks: dict[str, int]            # field key -> width mask
    lowering: object = field(repr=False)
    fast_run: Callable = field(repr=False)
    fast_source: str = field(repr=False)

    def describe(self) -> str:
        """Human-readable plan summary (stages, emission form, units,
        touched fields)."""
        lines = [f"execution plan: {len(self.stages)} active stages"]
        for splan in self.stages:
            form = (f"buffered: {splan.buffered}" if splan.buffered
                    else "straight-line")
            lines.append(f"  stage {splan.stage} ({form}): "
                         + ", ".join(splan.units))
            if splan.reads:
                lines.append(f"    reads:  {', '.join(sorted(splan.reads))}")
            if splan.writes:
                lines.append(f"    writes: {', '.join(sorted(splan.writes))}")
        return "\n".join(lines)


def plan_taint(
    units,
    register_owner: dict,
    app_module: str = "(app)",
) -> tuple[dict, dict]:
    """Module-taint fixpoint over placed units.

    An independent re-implementation of the depgraph-level pass in
    :mod:`repro.analysis.taint`, written against the placed units'
    effect sets (``module``/``reads``/``writes``/``registers`` on each)
    instead of the elaborated action instances. The compiler driver
    cross-checks the two: because both are monotone may-analyses over a
    finite lattice, chaotic iteration converges to the same least
    fixpoint, so any disagreement means lowering changed the dataflow —
    a bug worth failing the compile over.

    ``units`` is any iterable of objects with ``module`` (owning module
    name or ``None``), ``reads``/``writes`` (PHV field keys), and
    ``registers`` (register family names). ``register_owner`` maps
    family name to owning module. Returns ``(field_taint,
    register_taint)`` with only non-empty label sets.
    """
    units = list(units)
    field_taint: dict[str, frozenset] = {}
    register_taint: dict[str, frozenset] = {}
    for family, owner in register_owner.items():
        if owner != app_module:
            register_taint[family] = frozenset((owner,))

    changed = True
    while changed:
        changed = False
        for unit in units:
            module = unit.module
            if module is None or module == app_module:
                continue  # app glue declassifies
            carried = {module}
            for key in unit.reads:
                carried |= field_taint.get(key, frozenset())
            for family in unit.registers:
                carried |= register_taint.get(family, frozenset())
            for key in unit.writes:
                have = field_taint.get(key, frozenset())
                if not carried <= have:
                    field_taint[key] = have | carried
                    changed = True
            for family in unit.registers:
                have = register_taint.get(family, frozenset())
                if not carried <= have:
                    register_taint[family] = have | carried
                    changed = True
    return (
        {k: v for k, v in field_taint.items() if v},
        {k: v for k, v in register_taint.items() if v},
    )
