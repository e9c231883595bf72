"""Building the dependency graph from action instances (paper §4.2).

Rules, in order of dominance:

1. **Same-stage grouping** — instances that access the same register
   instance are merged into one node (a register lives in exactly one
   stage, and its accessors must be there with it).
2. **Precedence** — for instances ``a`` before ``b`` in program order, a
   read-after-write, write-after-read, or (non-commutative)
   write-after-write conflict on any PHV field makes ``a``'s node precede
   ``b``'s.
3. **Exclusion** — if the only conflicts between ``a`` and ``b`` are
   same-kind commutative updates (both increment, both min-update, ...)
   of shared fields, their nodes get an exclusion edge: separate stages,
   either order.

The paper's prototype (§5) only had precedence information available from
the Tofino toolchain and treated every edge as precedence;
``exclusion_as_precedence=True`` reproduces that degraded mode for the
ablation benchmark.
"""

from __future__ import annotations

import bisect

from .depgraph import DependencyGraph
from .ir import ActionInstance, UpdateKind

__all__ = ["build_dependency_graph", "DependencyGraphBuilder", "AnalysisError",
           "classify_pair"]

_PRECEDENCE = "precedence"
_EXCLUSION = "exclusion"


class AnalysisError(Exception):
    """Contradictory dependencies (e.g. ordering within one stage group)."""


def _commutative_fields(a: ActionInstance, b: ActionInstance) -> frozenset[str]:
    """Shared written fields updated commutatively with the same kind."""
    shared = a.writes & b.writes
    if not shared:
        return frozenset()
    plain = UpdateKind.PLAIN
    return frozenset(
        field for field in shared
        if a.commutative.get(field, plain) == b.commutative.get(field, plain)
        != plain
    )


def classify_pair(a: ActionInstance, b: ActionInstance) -> str | None:
    """Classify the dependency from ``a`` (earlier) to ``b`` (later).

    Returns ``"precedence"``, ``"exclusion"``, or ``None`` (independent).
    """
    comm = _commutative_fields(a, b)
    if (a.writes & b.reads) - comm or (a.reads & b.writes) - comm \
            or (a.writes & b.writes) - comm:
        return _PRECEDENCE
    if comm:
        return _EXCLUSION
    return None


def _in_order(a: ActionInstance, b: ActionInstance) -> str | None:
    """:func:`classify_pair` of two instances taken in program order."""
    if a.source_order <= b.source_order:
        return classify_pair(a, b)
    return classify_pair(b, a)


def _source_order(inst: ActionInstance) -> int:
    return inst.source_order


class _Group:
    """One node in the making: the instances that share a register, in
    program order, and the strongest dependency to each other group."""

    __slots__ = ("members", "edges")

    def __init__(self, members: list[ActionInstance]):
        self.members = members
        self.edges: dict[_Group, str] = {}

    def link(self, other: "_Group", kind: str) -> None:
        """Record ``kind`` between the two, unless a precedence is there."""
        if kind == _PRECEDENCE or other not in self.edges:
            self.edges[other] = other.edges[self] = kind


class DependencyGraphBuilder:
    """A dependency graph grown one batch of instances at a time.

    :meth:`add` groups each new instance with the nodes it shares a
    register with — merging them when it touches several — and
    classifies it against the members of every other node only, so the
    pairs already classified are never looked at again. :meth:`graph`
    lays out the graph of everything added so far: nodes in program
    order of their earliest member, edges as :func:`build_dependency_graph`
    describes. The instances added over all calls must have distinct
    ``uid`` and ``source_order`` values, in one program order.
    """

    def __init__(self, exclusion_as_precedence: bool = False):
        self.exclusion_as_precedence = exclusion_as_precedence
        self._groups: list[_Group] = []
        self._by_register: dict[tuple, _Group] = {}

    def add(self, instances: list[ActionInstance]) -> None:
        for inst in instances:
            self._add(inst)

    def _add(self, inst: ActionInstance) -> None:
        hit: list[_Group] = []
        for reg in inst.registers:
            group = self._by_register.get(reg)
            if group is not None and group not in hit:
                hit.append(group)
        if hit:
            group = hit[0]
            for other in hit[1:]:
                self._merge(group, other)
            for member in group.members:
                _same_stage(inst, member)
            bisect.insort(group.members, inst, key=_source_order)
        else:
            group = _Group([inst])
            self._groups.append(group)
        for reg in inst.registers:
            self._by_register[reg] = group
        for other in self._groups:
            if other is group or group.edges.get(other) == _PRECEDENCE:
                continue
            found = None
            for member in other.members:
                kind = _in_order(inst, member)
                if kind == _PRECEDENCE:
                    found = kind
                    break
                if kind is not None:
                    found = kind
            if found is not None:
                group.link(other, found)

    def _merge(self, keep: _Group, other: _Group) -> None:
        """Fold ``other`` into ``keep``: a new instance shares a register
        with both."""
        for a in other.members:
            for b in keep.members:
                _same_stage(a, b)
        keep.members = sorted(keep.members + other.members, key=_source_order)
        self._groups.remove(other)
        for peer, kind in other.edges.items():
            del peer.edges[other]
            if peer is not keep:
                keep.link(peer, kind)
        for member in other.members:
            for reg in member.registers:
                self._by_register[reg] = keep

    def graph(self) -> DependencyGraph:
        """The graph of every instance added so far."""
        graph = DependencyGraph()
        ordered = sorted(self._groups, key=lambda g: g.members[0].source_order)
        rank = {group: r for r, group in enumerate(ordered)}
        nodes = [graph.add_node(group.members) for group in ordered]
        for r, group in enumerate(ordered):
            # Later nodes in program order, as the pairs i < j are taken.
            for peer in sorted((p for p in group.edges if rank[p] > r),
                               key=rank.__getitem__):
                first, second = nodes[r], nodes[rank[peer]]
                if group.edges[peer] == _PRECEDENCE or \
                        self.exclusion_as_precedence:
                    graph.add_precedence(first, second)
                else:
                    graph.add_exclusion(first, second)
        return graph


def _same_stage(a: ActionInstance, b: ActionInstance) -> None:
    """Raise unless ``a`` and ``b`` (one register) can share a stage."""
    if _in_order(a, b) == _PRECEDENCE:
        early, late = (a, b) if a.source_order <= b.source_order else (b, a)
        raise AnalysisError(
            f"actions {early.label} and {late.label} must share a stage "
            f"(common register) but also have an ordering dependency"
        )


def build_dependency_graph(
    instances: list[ActionInstance],
    exclusion_as_precedence: bool = False,
) -> DependencyGraph:
    """Group instances into nodes and add precedence/exclusion edges.

    ``instances`` must be in program order. Nodes are numbered in
    program order of their earliest member; the dependency between two
    nodes is the strongest over their member pairs, and a precedence
    edge runs from the earlier node to the later. With
    ``exclusion_as_precedence`` set, commutative conflicts produce
    precedence edges in program order instead (the prototype limitation
    described in §5).
    """
    builder = DependencyGraphBuilder(exclusion_as_precedence)
    builder.add(instances)
    return builder.graph()
