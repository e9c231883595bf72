"""Dependency graphs over action instances (paper §4.2).

Nodes group actions that access the same register instance (they must be
placed in the same stage). Two edge types connect nodes:

* **precedence** (directed): a data/control dependency forces the source
  node into a strictly earlier stage;
* **exclusion** (undirected): commutative but conflicting actions must be
  in different stages, in either order (e.g. the ``min_i`` updates of the
  count-min sketch).

The unrolling bound needs the *longest simple path*, where a simple path
may traverse precedence edges forward and exclusion edges in either
direction, visiting each node at most once (Figure 9's path
``incr_1, min_1, min_2, min_3`` has length 4). Longest simple path is
NP-hard in general; :meth:`DependencyGraph.longest_simple_path` is exact
with two optimizations that exploit the symmetry of unrolled loops:

* early exit once a path longer than the requested cutoff is found;
* symmetry pruning — among unvisited, mutually symmetric nodes (same
  template, same neighborhood shape) only the lowest-numbered one extends
  a path, collapsing the factorial blowup of exclusion cliques.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .ir import ActionInstance

__all__ = ["DepNode", "DependencyGraph"]


@dataclass
class DepNode:
    """A set of action instances that must share one stage."""

    node_id: int
    instances: list[ActionInstance] = field(default_factory=list)

    # Both are read once per edge and per stage; a node's members never
    # change once it is in a graph.
    @functools.cached_property
    def label(self) -> str:
        return "+".join(inst.label for inst in self.instances)

    @functools.cached_property
    def template_key(self) -> tuple:
        """Symmetry class key: the multiset of member action templates."""
        return tuple(sorted(inst.name for inst in self.instances))

    def __hash__(self):
        return self.node_id

    def __repr__(self) -> str:
        return f"DepNode({self.label})"


class DependencyGraph:
    """Mixed precedence/exclusion graph over same-stage node groups."""

    def __init__(self):
        self.nodes: list[DepNode] = []
        self._node_of_instance: dict[int, DepNode] = {}
        # Adjacency: node_id -> set of node_ids.
        self.precedence_out: dict[int, set[int]] = {}
        self.precedence_in: dict[int, set[int]] = {}
        self.exclusion: dict[int, set[int]] = {}

    # -- construction -----------------------------------------------------------
    def add_node(self, instances: list[ActionInstance]) -> DepNode:
        node = DepNode(node_id=len(self.nodes), instances=list(instances))
        self.nodes.append(node)
        for inst in instances:
            self._node_of_instance[inst.uid] = node
        self.precedence_out[node.node_id] = set()
        self.precedence_in[node.node_id] = set()
        self.exclusion[node.node_id] = set()
        return node

    def node_of(self, instance: ActionInstance) -> DepNode:
        return self._node_of_instance[instance.uid]

    def add_precedence(self, src: DepNode, dst: DepNode) -> None:
        """src must be placed strictly before dst."""
        if src.node_id == dst.node_id:
            return
        self.precedence_out[src.node_id].add(dst.node_id)
        self.precedence_in[dst.node_id].add(src.node_id)

    def add_exclusion(self, a: DepNode, b: DepNode) -> None:
        """a and b must be in different stages, in either order."""
        if a.node_id == b.node_id:
            return
        # A precedence edge already implies separation; keep it dominant.
        if b.node_id in self.precedence_out[a.node_id] or \
                a.node_id in self.precedence_out[b.node_id]:
            return
        self.exclusion[a.node_id].add(b.node_id)
        self.exclusion[b.node_id].add(a.node_id)

    # -- queries ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def precedence_edges(self) -> list[tuple[DepNode, DepNode]]:
        return [
            (self.nodes[src], self.nodes[dst])
            for src, dsts in self.precedence_out.items()
            for dst in dsts
        ]

    def exclusion_edges(self) -> list[tuple[DepNode, DepNode]]:
        seen = set()
        out = []
        for a, others in self.exclusion.items():
            for b in others:
                if (b, a) not in seen:
                    seen.add((a, b))
                    out.append((self.nodes[a], self.nodes[b]))
        return out

    def neighbors(self, node_id: int) -> set[int]:
        """Nodes reachable in one step of a simple path from ``node_id``."""
        return self.precedence_out[node_id] | self.exclusion[node_id]

    def has_cycle(self) -> bool:
        """True if the precedence relation alone is cyclic (unschedulable)."""
        color = {n.node_id: 0 for n in self.nodes}

        def dfs(u: int) -> bool:
            color[u] = 1
            for v in self.precedence_out[u]:
                if color[v] == 1:
                    return True
                if color[v] == 0 and dfs(v):
                    return True
            color[u] = 2
            return False

        return any(color[n.node_id] == 0 and dfs(n.node_id) for n in self.nodes)

    # -- stage windows -------------------------------------------------------------
    def stage_windows(self, stages: int, implies) -> dict[int, range]:
        """ASAP/ALAP levelling: the stages each node can occupy.

        ``implies(a, b)`` says that placing node ``a`` forces node ``b``
        to be placed. A node's earliest stage is the longest chain of
        precedence predecessors it implies (each needs a stage of its
        own before it); its latest stage is ``stages - 1`` minus the
        longest such chain of successors. A neighbour whose placement is
        *not* implied may stay unplaced and so reserves nothing. The
        window of a node that cannot fit at all is empty. Nodes on a
        precedence cycle keep the full range (no layout places them
        anyway).
        """
        order: list[int] = []
        indegree = {n.node_id: len(self.precedence_in[n.node_id])
                    for n in self.nodes}
        ready = [nid for nid, deg in indegree.items() if deg == 0]
        while ready:
            nid = ready.pop()
            order.append(nid)
            for succ in self.precedence_out[nid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        asap = {n.node_id: 0 for n in self.nodes}
        alap = {n.node_id: stages - 1 for n in self.nodes}
        for nid in order:
            node = self.nodes[nid]
            for pred in self.precedence_in[nid]:
                if implies(node, self.nodes[pred]):
                    asap[nid] = max(asap[nid], asap[pred] + 1)
        for nid in reversed(order):
            node = self.nodes[nid]
            for succ in self.precedence_out[nid]:
                if implies(node, self.nodes[succ]):
                    alap[nid] = min(alap[nid], alap[succ] - 1)
        return {nid: range(asap[nid], alap[nid] + 1) for nid in asap}

    # -- longest simple path -----------------------------------------------------
    def longest_simple_path(self, cutoff: int | None = None) -> int:
        """Length (node count) of the longest simple path.

        A simple path follows precedence edges forward and exclusion edges
        in either direction without revisiting nodes. With ``cutoff`` set,
        the search stops early and returns ``cutoff + 1`` as soon as any
        path exceeds it (that is all the unrolling bound needs).
        """
        if not self.nodes:
            return 0
        limit = cutoff + 1 if cutoff is not None else self.num_nodes

        # Symmetry classes: nodes with identical template and neighbor-shape.
        class_key: dict[int, tuple] = {}
        for node in self.nodes:
            nid = node.node_id
            shape = (
                node.template_key,
                tuple(sorted(self.nodes[v].template_key for v in self.precedence_out[nid])),
                tuple(sorted(self.nodes[v].template_key for v in self.precedence_in[nid])),
                tuple(sorted(self.nodes[v].template_key for v in self.exclusion[nid])),
            )
            class_key[nid] = shape

        visited: set[int] = set()
        best = 0

        def allowed(candidates: set[int]) -> list[int]:
            """Symmetry pruning: keep only the lowest-id unvisited node of
            each class whose unvisited class members are interchangeable."""
            chosen: dict[tuple, int] = {}
            singles: list[int] = []
            for v in sorted(candidates):
                key = class_key[v]
                if key not in chosen:
                    chosen[key] = v
                    singles.append(v)
                else:
                    # Another member of the same class is already a candidate;
                    # only expand the lowest id — the rest are symmetric.
                    pass
            return singles

        def dfs(u: int, depth: int) -> None:
            nonlocal best
            best = max(best, depth)
            if best >= limit:
                return
            visited.add(u)
            for v in allowed(self.neighbors(u) - visited):
                dfs(v, depth + 1)
                if best >= limit:
                    break
            visited.remove(u)

        for start in allowed(set(n.node_id for n in self.nodes)):
            dfs(start, 1)
            if best >= limit:
                break
        return best

    def __repr__(self) -> str:
        return (
            f"DependencyGraph(nodes={self.num_nodes}, "
            f"prec={len(self.precedence_edges())}, "
            f"excl={len(self.exclusion_edges())})"
        )
