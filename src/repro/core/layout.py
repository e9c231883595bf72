"""The layout ILP (paper §4.3, Figure 10).

Given the unrolled program (action instances at their upper bounds), the
dependency graph, and a target, :class:`LayoutBuilder` constructs an ILP
whose solution is simultaneously:

* a concrete assignment for every symbolic value,
* a stage placement for every placed action node, and
* a per-stage memory allocation for every placed register instance.

Variable families (Figure 10):

====================  =====================================================
``x[n, s]``           binary — dependency-graph node ``n`` placed in stage
                      ``s`` (same-stage groups place as a unit, which *is*
                      constraint #4). Exists only for ``s`` inside the
                      node's **stage window** (below)
``it[v, i]``          binary — iteration ``i`` of symbolic ``v`` is active
                      (the metadata variables ``d_i``, #13/#14, coincide
                      with these)
``size[y]``           integer — cells per register array for size-symbolic
                      ``y`` (shared by every register family sized by it)
``m[g, s]``           continuous — cells each register instance of **cell
                      group** ``g`` holds in stage ``s``. A group is the
                      register instances read by one node and sized by one
                      expression (NetCache's ``kv_keys[i]``, ``kv_val0[i]``,
                      ``kv_val1[i]``): they sit in the same stage with the
                      same cell count, so they share the variable and a
                      cell of it costs the sum of their widths. Integrality
                      is implied (``m = size · x`` by #9, #10, #15)
====================  =====================================================

Constraint families map to the paper's numbering as follows: #4 node
grouping (structural), #5 exclusion, #6 precedence, #7/#15/#16
iteration-activation coupling and ordering, #8 per-stage memory, #9
register/action co-location, #10 equal sizes, #11/#12 ALU limits,
#13/#14 PHV budget, #17 inelastic placement, plus user assumes and — as
extensions flagged in §4.4 — per-stage hash-unit limits.

The rows are written for a tight LP relaxation — every one is exact
(same integer solutions as the textbook big-M form):

* **stage windows** — a node's earliest stage is the longest chain of
  precedence predecessors its placement implies (inelastic, or an
  iteration of its own symbolic no later than its own: #7 + #16), its
  latest likewise over successors
  (:meth:`~repro.analysis.depgraph.DependencyGraph.stage_windows`);
  no variable or term exists outside the window;
* **#6 per stage** — ``Σ_{t≤s} x[dst,t] + Σ_{t≥s} x[src,t] ≤ 1``: the
  successor at or before ``s`` excludes the predecessor at or after it;
* **#10** — ``Σ_s m[g,s] ≤ cells`` needs no big-M (the total is 0 or
  ``cells``); only the ``≥`` side carries the unplaced slack.

The search maximises the utility alone, at HiGHS's default relative gap
of 1e-4. A start step comes first (:meth:`LayoutBuilder.search`): the
LP relaxation gives a bound B, and a layout rounded from it — ``it`` at
⌊Σ it⌋ of the LP, then the restricted LP rounded or, failing that, the
canonical placement (below) of ⌊sizes⌋ — is the start. A start within 1e-4
of B — B rounded down to the utility's lattice, when it has one — is
accepted with no search, since the search would stop there too;
otherwise it seeds the search. Two zero-gap passes follow, each
milliseconds:

* :meth:`LayoutBuilder.resolve_sizes` re-solves the sizes with ``x`` and
  ``it`` fixed, since the sizes the search stops at may sit a few cells
  under the optimum of the structure it found;
* :meth:`LayoutBuilder.canonical_placement` then fixes ``it`` and the
  sizes — so the utility too — and picks the placement with the least
  stage sum, each node weighted by its id. Many placements are optimal,
  and which one the search (or the start) stopped at depends on its
  path; after this pass ``node_stage``, the emitted P4 and the generated
  vector source depend on the symbol values alone, not on where the
  search stopped. When the start was placed by this same solve and the
  layout ends at the start's ``it``, sizes and free symbolics — a
  certified start, or a seeded search that kept them — the pass is
  skipped and the start's placement taken: it would return it.

:attr:`LayoutSolution.objective` is the utility evaluated at the decoded
symbol values (:func:`~repro.core.utility.utility_at`).
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from ..analysis.depgraph import DependencyGraph, DepNode
from ..analysis.dependencies import build_dependency_graph
from ..analysis.ir import ActionInstance, ProgramIR, instantiate
from ..analysis.unroll import UnrollBounds
from ..lang import ast
from ..lang.errors import SemanticError
from ..lang.symbols import eval_static
from ..ilp import (
    Constraint,
    LinExpr,
    Model,
    Sense,
    Solution,
    SolveStatus,
    VarType,
    solve,
)
from ..pisa.resources import TargetSpec
from .errors import (
    CompileError,
    LayoutInfeasibleError,
    LayoutTimeoutError,
    UtilityError,
)
from .tablemem import table_memory_bits

__all__ = ["LayoutBuilder", "LayoutModel", "LayoutSolution", "RegisterFamily",
           "CellGroup"]

#: HiGHS's default ``mip_rel_gap``: the search stops once its incumbent
#: is this close, relatively, to its bound, and so does the start step
_REL_GAP = 1e-4
#: slack on ⌊·⌋ of an LP value that is an integer up to float error
_INT_TOL = 1e-6


@dataclass
class RegisterFamily:
    """A register declaration expanded to its candidate instances."""

    name: str
    cell_bits: int
    count_symbolic: str | None        # symbolic governing #arrays (or None)
    num_instances: int                # count value or unroll bound
    size_expr: ast.Expr               # cells per array (static expr)
    fixed_cells: int | None           # set when size_expr is fully constant
    size_symbolics: frozenset[str] = frozenset()


@dataclass
class CellGroup:
    """Register instances sharing one cell variable per stage: read by
    the same dependency node and sized by the same expression, so they
    sit in one stage and hold the same number of cells."""

    gid: int
    anchor: DepNode
    family: RegisterFamily            # first member's: sizes the group
    members: list[tuple[str, int]]    # (family, index)
    bits_per_cell: int = 0            # Σ member cell widths
    cap: int = 0                      # most cells one stage can hold
    cells: LinExpr | None = None      # cells per array, over size variables

    @property
    def label(self) -> str:
        return "+".join(f"{fam}[{i}]" for fam, i in self.members)


class LayoutModel:
    """The constructed ILP plus handles for solution extraction."""

    def __init__(self, ir: ProgramIR, target: TargetSpec):
        self.ir = ir
        self.target = target
        self.model = Model("p4all-layout")
        self.instances: list[ActionInstance] = []
        self.graph: DependencyGraph | None = None
        self.families: dict[str, RegisterFamily] = {}
        # Variable handles
        self.window: dict[int, range] = {}                # node_id -> stages it may take
        self.x: dict[tuple[int, int], object] = {}        # (node_id, stage in window) -> Var
        self.it: dict[tuple[str, int], object] = {}       # (symbolic, iter) -> Var
        self.size_vars: dict[str, object] = {}            # size-symbolic -> Var
        self.groups: list[CellGroup] = []
        self.group_of: dict[tuple[str, int], CellGroup] = {}   # (family, idx) -> group
        self.m: dict[tuple[int, int], object] = {}        # (gid, stage in window) -> Var
        self.free_sym_vars: dict[str, object] = {}        # unused symbolics
        self.loop_symbolics: list[str] = []
        self.counts: dict[str, int] = {}
        # min()-linearization aux vars with their arms, recorded by
        # utility.linearize_term so encode_assignment can repair them
        # (aux := min over arm values) after assigning the real variables.
        self.min_aux: list[tuple[object, list[LinExpr]]] = []

    # -- symbolic-value expressions ----------------------------------------------
    def symbolic_expr(self, name: str) -> LinExpr:
        """ILP expression whose value equals symbolic ``name``."""
        if name in self.loop_symbolics:
            return LinExpr.total(
                self.it[(name, i)] for i in range(self.counts.get(name, 0))
            )
        if name in self.size_vars:
            return LinExpr.from_term(self.size_vars[name])
        if name in self.free_sym_vars:
            return LinExpr.from_term(self.free_sym_vars[name])
        raise UtilityError(f"symbolic value {name!r} has no ILP representation")

    def total_cells_expr(self, family: RegisterFamily) -> LinExpr:
        """Sum of allocated cells across all instances/stages of a family
        (read off the cell variables its instances share with their
        groups; an instance no action touches holds none)."""
        groups = (self.group_of.get((family.name, i))
                  for i in range(family.num_instances))
        return LinExpr.total(
            self.m[(group.gid, s)]
            for group in groups if group is not None
            for s in self.window[group.anchor.node_id]
        )

    def family_for_product(self, sym_a: str, sym_b: str) -> RegisterFamily | None:
        """Find a register family whose (count, size) symbolics are the pair."""
        for fam in self.families.values():
            pair = {fam.count_symbolic} | set(fam.size_symbolics)
            if fam.count_symbolic is not None and {sym_a, sym_b} <= pair \
                    and len(fam.size_symbolics) == 1:
                return fam
        return None


@dataclass
class LayoutSolution:
    """Decoded ILP solution."""

    status: SolveStatus
    #: the utility — the ``optimize`` expression, or the weighted sum of
    #: the linked per-module terms — at ``symbol_values``. No solver
    #: tolerance: equal symbol values give an equal objective, whichever
    #: back end or encoding found them
    objective: float
    symbol_values: dict[str, int]
    node_stage: dict[int, int | None]
    instance_stage: dict[int, int | None]      # instance uid -> stage
    register_alloc: dict[tuple[str, int], tuple[int, int]]  # (fam, idx) -> (stage, cells)
    iteration_active: dict[tuple[str, int], bool]
    solve_seconds: float
    backend: str
    num_variables: int
    num_constraints: int
    nodes_explored: int = 0
    #: the path the layout took (:meth:`LayoutBuilder.search`):
    #: ``"lp-certified"`` — the LP-rounded start, within 1e-4 of the LP
    #: bound, so no search ran; ``"seeded"`` — the search, seeded with
    #: that start; ``""`` — the plain search (or a greedy layout)
    incumbent_source: str = ""
    #: the search's best proven bound on the utility and the relative gap
    #: it stopped at (the bound is ≥ ``objective``, up to the solver's
    #: tolerances); ``None`` for greedy layouts
    mip_dual_bound: float | None = None
    mip_gap: float | None = None
    #: per-module objective contribution (weighted), when the program
    #: was linked with per-module utility terms
    utility_breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def stages_used(self) -> set[int]:
        return {s for s in self.node_stage.values() if s is not None}

    def memory_bits_by_stage(self, layout: "LayoutModel") -> dict[int, int]:
        out: dict[int, int] = {}
        for (fam, _idx), (stage, cells) in self.register_alloc.items():
            bits = cells * layout.families[fam].cell_bits
            out[stage] = out.get(stage, 0) + bits
        return out


class LayoutBuilder:
    """Constructs and solves the layout ILP."""

    def __init__(
        self,
        ir: ProgramIR,
        bounds: UnrollBounds,
        target: TargetSpec,
        exclusion_as_precedence: bool = False,
    ):
        self.ir = ir
        self.info = ir.info
        self.bounds = bounds
        self.target = target
        #: the prototype-mode ablation: every exclusion edge of the
        #: dependency graph becomes a precedence edge
        self.exclusion_as_precedence = exclusion_as_precedence
        self.layout = LayoutModel(ir, target)
        #: the start's values when its placement came from the canonical
        #: objective (:meth:`_start_point`): a layout with its symbol
        #: columns needs no :meth:`canonical_placement`
        self._canonical_start: dict | None = None

    # ------------------------------------------------------------------ build --
    def build(self) -> LayoutModel:
        lm = self.layout
        lm.counts = dict(self.bounds.as_counts())
        lm.loop_symbolics = list(lm.counts)
        lm.instances = instantiate(self.ir, lm.counts)
        lm.graph = build_dependency_graph(
            lm.instances,
            exclusion_as_precedence=self.exclusion_as_precedence,
        )
        self._make_register_families()
        self._make_cell_groups()
        lm.window = lm.graph.stage_windows(self.target.stages, self._implies)
        self._make_variables()
        self._activation_constraints()          # #7, #15, #16, #17
        self._dependency_constraints()          # #5, #6 (+#4 structurally)
        self._alu_constraints()                 # #11, #12 (+ hash units)
        self._memory_constraints()              # #8, #9, #10
        self._phv_constraints()                 # #13, #14
        self._assume_constraints()
        self._symmetry_breaking()
        return lm

    # -- register families -------------------------------------------------------
    def _make_register_families(self) -> None:
        lm = self.layout
        used: set[str] = set()
        for inst in lm.instances:
            for fam_name, _idx in inst.registers:
                used.add(fam_name)
        for name, reg in self.info.registers.items():
            if name not in used:
                continue
            decl = reg.decl
            count_sym: str | None = None
            if decl.count is None:
                num = 1
            elif isinstance(decl.count, ast.Name) and \
                    decl.count.ident in self.info.symbolics:
                count_sym = decl.count.ident
                if count_sym not in lm.counts:
                    raise CompileError(
                        f"register {name!r}: count symbolic {count_sym!r} does not "
                        "bound any loop, so its value cannot be inferred"
                    )
                num = lm.counts[count_sym]
            else:
                static = _try_static(decl.count, self.info.consts)
                if static is None:
                    raise CompileError(
                        f"register {name!r}: count must be a constant expression "
                        "or a bare symbolic"
                    )
                num = int(static)
            size_syms = frozenset(
                n.ident
                for n in ast.walk(decl.size)
                if isinstance(n, ast.Name) and n.ident in self.info.symbolics
            )
            fixed_cells: int | None = None
            if not size_syms:
                fixed_cells = int(eval_static(decl.size, self.info.consts))
                if fixed_cells <= 0:
                    raise CompileError(f"register {name!r}: size must be positive")
            lm.families[name] = RegisterFamily(
                name=name,
                cell_bits=reg.cell_bits,
                count_symbolic=count_sym,
                num_instances=num,
                size_expr=decl.size,
                fixed_cells=fixed_cells,
                size_symbolics=size_syms,
            )

    def _make_cell_groups(self) -> None:
        """Partition used register instances by (anchor node, size
        expression); instances no action touches get no memory at all."""
        lm = self.layout
        memory = self.target.memory_bits_per_stage
        by_anchor: dict[int, list[CellGroup]] = {}
        for inst in lm.instances:
            anchor = lm.graph.node_of(inst)
            # Sorted: a group's member order names its variables and rows,
            # which must not follow PYTHONHASHSEED.
            for key in sorted(inst.registers):
                if key in lm.group_of:
                    continue
                fam = lm.families[key[0]]
                if fam.cell_bits > memory:
                    raise CompileError(
                        f"register {fam.name!r}: one {fam.cell_bits}-bit cell "
                        f"does not fit in a stage ({memory} bits)"
                    )
                peers = by_anchor.setdefault(anchor.node_id, [])
                group = next(
                    (g for g in peers if g.family.size_expr == fam.size_expr),
                    None,
                )
                if group is None:
                    group = CellGroup(len(lm.groups), anchor, fam, [])
                    lm.groups.append(group)
                    peers.append(group)
                group.members.append(key)
                group.bits_per_cell += fam.cell_bits
                lm.group_of[key] = group
        for group in lm.groups:
            # A placed group holds at least one cell per member, so a
            # group wider than a stage can never be placed: cap 0.
            group.cap = memory // group.bits_per_cell
            if group.family.fixed_cells is not None:
                group.cap = min(group.cap, group.family.fixed_cells)

    # -- stage windows -------------------------------------------------------------
    def _iterations(self, node: DepNode) -> set[tuple[str, int]]:
        """The (symbolic, iteration) pairs whose activation places ``node``."""
        return {
            (inst.symbolic, inst.iteration)
            for inst in node.instances
            if inst.symbolic is not None
        }

    def _inelastic(self, node: DepNode) -> bool:
        return any(inst.symbolic is None for inst in node.instances)

    def _implies(self, node: DepNode, other: DepNode) -> bool:
        """Placing ``node`` forces ``other`` to be placed: ``other`` is
        inelastic (#17), or one of its iterations is no later than an
        iteration of the same symbolic that ``node`` carries (#7 ties
        both to their iterations, #16 activates iterations in order)."""
        if self._inelastic(other):
            return True
        mine = self._iterations(node)
        return any(
            sym == osym and it >= oit
            for osym, oit in self._iterations(other)
            for sym, it in mine
        )

    # -- variables ---------------------------------------------------------------
    def _make_variables(self) -> None:
        lm = self.layout
        model = lm.model
        for node in lm.graph.nodes:
            for s in lm.window[node.node_id]:
                lm.x[(node.node_id, s)] = model.add_var(
                    f"x[{node.label}@{s}]", vartype=VarType.BINARY
                )
        for sym, count in lm.counts.items():
            for i in range(count):
                lm.it[(sym, i)] = model.add_var(
                    f"it[{sym},{i}]", vartype=VarType.BINARY
                )
        # One size variable per size-symbolic, bounded by the tightest
        # group. Where the symbolic *is* the cell count that is the
        # group's cap; under any other expression (``cols / 2``) only
        # one member's cell is a safe bound and #9/#10 do the rest.
        sym_caps: dict[str, int] = {}
        for group in lm.groups:
            cap = group.cap
            if not isinstance(group.family.size_expr, ast.Name):
                cap = self.target.memory_bits_per_stage // max(
                    lm.families[fam].cell_bits for fam, _idx in group.members
                )
            # size_symbolics is a frozenset; sort so variable creation
            # order (and thus LP text) is independent of PYTHONHASHSEED.
            for sym in sorted(group.family.size_symbolics):
                sym_caps[sym] = min(sym_caps.get(sym, cap), cap)
        for sym, cap in sym_caps.items():
            lm.size_vars[sym] = model.add_var(
                f"size[{sym}]", lb=1, ub=max(cap, 1), vartype=VarType.INTEGER
            )
        # Memory variables, in cells. ``m = cells · x`` is forced by #9,
        # #10 and #15, so integrality is implied wherever ``cells`` is an
        # integer combination of the size variables.
        for group in lm.groups:
            cells = group.cells = self._cells_expr(group)
            integral = all(
                float(c).is_integer() for c in (*cells.terms.values(), cells.constant)
            )
            for s in lm.window[group.anchor.node_id]:
                lm.m[(group.gid, s)] = model.add_var(
                    f"m[{group.label}@{s}]", lb=0, ub=group.cap,
                    vartype=VarType.CONTINUOUS if integral else VarType.INTEGER,
                )
        # Symbolics that are neither loop bounds nor register sizes get a
        # free integer variable (constrained only by assumes).
        for sym in self.info.symbolics:
            if sym not in lm.counts and sym not in lm.size_vars:
                lm.free_sym_vars[sym] = model.add_var(
                    f"sym[{sym}]", lb=0, ub=2 ** 20, vartype=VarType.INTEGER
                )

    # -- helpers ----------------------------------------------------------------
    def _placed_terms(self, node: DepNode) -> dict:
        """``{x[node, s]: 1}`` over the node's window."""
        lm = self.layout
        return {lm.x[(node.node_id, s)]: 1.0 for s in lm.window[node.node_id]}

    def _placed(self, node: DepNode) -> LinExpr:
        return LinExpr(self._placed_terms(node))

    def _row(self, terms: dict, sense: Sense, rhs: float, name: str) -> None:
        """Add ``Σ coef·var (sense) rhs``, the terms given as a dict: the
        row ``LinExpr`` arithmetic would build, without building it."""
        self.layout.model.add_constr(
            Constraint(LinExpr(terms, 0.0 - rhs), sense), name=name)

    # -- #7 / #15 / #16 / #17 ------------------------------------------------------
    def _activation_constraints(self) -> None:
        lm = self.layout
        for node in lm.graph.nodes:
            placed = self._placed_terms(node)
            activations = self._iterations(node)
            if self._inelastic(node):
                # #17: inelastic units must be placed (#15 is implied).
                self._row(placed, Sense.EQ, 1, f"inelastic[{node.label}]")
                for key in activations:
                    self._row({lm.it[key]: 1.0}, Sense.EQ, 1,
                              f"forced_it[{key[0]},{key[1]}]")
            else:
                # #7: a node is placed iff its iteration(s) are active —
                # which also places it at most once (#15, ``it`` binary).
                for key in activations:
                    self._row({**placed, lm.it[key]: -1.0}, Sense.EQ, 0,
                              f"cond[{node.label}:{key[0]},{key[1]}]")
        # #16: iterations activate in order.
        for sym, count in lm.counts.items():
            for i in range(count - 1):
                self._row({lm.it[(sym, i + 1)]: 1.0, lm.it[(sym, i)]: -1.0},
                          Sense.LE, 0, f"order[{sym},{i}]")

    # -- #5 / #6 -------------------------------------------------------------------
    def _order(self, first: DepNode, second: DepNode, gap: int, name: str) -> None:
        """``stage(first) + gap ≤ stage(second)`` whenever both are placed
        (``gap`` 1: strictly before, 0: not after), one row per stage:
        ``second`` before ``s + gap`` excludes ``first`` at or after
        ``s``. Rows outside the overlap of the two windows are dominated
        by the nearest one inside it."""
        lm = self.layout
        w_first, w_second = lm.window[first.node_id], lm.window[second.node_id]
        if not w_first or not w_second or w_first[-1] + gap <= w_second[0]:
            return  # a side is never placed, or the windows already order them
        last = min(w_first[-1], w_second[-1] + 1 - gap)
        for s in range(min(max(w_first[0], w_second[0] + 1 - gap), last), last + 1):
            terms = {lm.x[(second.node_id, t)]: 1.0
                     for t in w_second if t < s + gap}
            terms.update(
                (lm.x[(first.node_id, t)], 1.0) for t in w_first if t >= s
            )
            self._row(terms, Sense.LE, 1, f"{name}@{s}")

    def _dependency_constraints(self) -> None:
        lm = self.layout
        for src, dst in lm.graph.precedence_edges():
            self._order(src, dst, 1, f"prec[{src.label}->{dst.label}]")
        for a, b in lm.graph.exclusion_edges():
            # #5: never share a stage.
            shared = lm.window[b.node_id]
            for s in lm.window[a.node_id]:
                if s in shared:
                    self._row({lm.x[(a.node_id, s)]: 1.0,
                               lm.x[(b.node_id, s)]: 1.0}, Sense.LE, 1,
                              f"excl[{a.label}|{b.label}@{s}]")

    # -- #11 / #12 (+ hash units) ----------------------------------------------------
    def _alu_constraints(self) -> None:
        lm = self.layout
        rows = [
            ("alus_f", self.target.stateful_alus_per_stage,
             lambda inst: self.target.hf(inst.cost)),
            ("alus_l", self.target.stateless_alus_per_stage,
             lambda inst: self.target.hl(inst.cost)),
            ("hash_units", self.target.hash_units_per_stage,
             lambda inst: inst.cost.hash_ops),
        ]
        for name, limit, cost_of in rows:
            usage = [{} for _ in range(self.target.stages)]
            for node in lm.graph.nodes:
                cost = sum(cost_of(inst) for inst in node.instances)
                if cost:
                    for s in lm.window[node.node_id]:
                        usage[s][lm.x[(node.node_id, s)]] = float(cost)
            for s, terms in enumerate(usage):
                # A row every candidate fits under at once never binds.
                if sum(terms.values()) > limit:
                    self._row(terms, Sense.LE, limit, f"{name}[{s}]")

    # -- #8 / #9 / #10 ----------------------------------------------------------------
    def _cells_expr(self, group: CellGroup) -> LinExpr:
        """Per-array cell count as a linear expression of size variables."""
        if group.family.fixed_cells is not None:
            return LinExpr(constant=group.family.fixed_cells)
        env = {
            sym: LinExpr.from_term(var) for sym, var in self.layout.size_vars.items()
        }
        return _affine_expr(group.family.size_expr, env, self.info.consts)

    def _memory_constraints(self) -> None:
        lm = self.layout
        model = lm.model
        # #8: per-stage memory in bits — a cell of a group costs the
        # widths of all its members; table SRAM (§4.4 extension) comes
        # out of the same budget.
        usage = [{} for _ in range(self.target.stages)]
        for group in lm.groups:
            for s in lm.window[group.anchor.node_id]:
                usage[s][lm.m[(group.gid, s)]] = float(group.bits_per_cell)
        for node in lm.graph.nodes:
            bits = sum(
                table_memory_bits(self.info.tables[inst.table], self.info)
                for inst in node.instances
                if inst.table is not None
            )
            if bits:
                for s in lm.window[node.node_id]:
                    usage[s][lm.x[(node.node_id, s)]] = float(bits)
        for s, terms in enumerate(usage):
            if terms:
                self._row(terms, Sense.LE, self.target.memory_bits_per_stage,
                          f"mem[{s}]")
        for group in lm.groups:
            anchor = group.anchor
            window = lm.window[anchor.node_id]
            label, cells = group.label, group.cells
            # #9: memory only where the accessing node is placed.
            for s in window:
                self._row({lm.m[(group.gid, s)]: 1.0,
                           lm.x[(anchor.node_id, s)]: -1.0 * group.cap},
                          Sense.LE, 0, f"coloc[{label}@{s}]")
            # #10: a placed group holds exactly ``cells`` cells. The total
            # is 0 or ``cells``, so only the lower side needs a slack for
            # the unplaced case: the most ``cells`` can be.
            total = LinExpr.total(lm.m[(group.gid, s)] for s in window)
            most = cells.constant + sum(
                coef * (var.ub if coef > 0 else var.lb)
                for var, coef in cells.terms.items()
            )
            model.add_constr(
                total - cells + most * (1 - self._placed(anchor)) >= 0,
                name=f"size_lo[{label}]",
            )
            model.add_constr(total - cells <= 0, name=f"size_hi[{label}]")

    # -- #13 / #14 ---------------------------------------------------------------------
    def _phv_constraints(self) -> None:
        lm = self.layout
        model = lm.model
        budget = self.target.phv_bits - self.info.metadata_fixed_bits()
        if budget < 0:
            raise CompileError(
                "fixed metadata alone exceeds the target's PHV capacity "
                f"({self.info.metadata_fixed_bits()} > {self.target.phv_bits} bits)"
            )
        usage = LinExpr()
        for fd in self.info.metadata.values():
            if fd.array_size is None:
                continue
            syms = {
                n.ident
                for n in ast.walk(fd.array_size)
                if isinstance(n, ast.Name) and n.ident in self.info.symbolics
            }
            if not syms:
                usage += fd.width * int(eval_static(fd.array_size, self.info.consts))
                continue
            if len(syms) > 1:
                raise CompileError(
                    f"metadata array {fd.name!r}: extent may reference at most "
                    "one symbolic value"
                )
            sym = syms.pop()
            if sym not in lm.counts:
                raise CompileError(
                    f"metadata array {fd.name!r} is sized by {sym!r}, which does "
                    "not bound any loop"
                )
            # width · (number of active iterations); element i exists iff
            # iteration i is active (#14 with d_i ≡ it_i).
            for i in range(lm.counts[sym]):
                usage += fd.width * LinExpr.from_term(lm.it[(sym, i)])
        model.add_constr(usage <= budget, name="phv")

    # -- assumes ----------------------------------------------------------------------
    def _assume_constraints(self) -> None:
        from .utility import linearize_condition  # cycle-free: late import

        for idx, assume in enumerate(self.info.program.assumes()):
            constraints = linearize_condition(assume.condition, self.layout, self.info)
            for j, constr in enumerate(constraints):
                self.layout.model.add_constr(constr, name=f"assume{idx}.{j}")

    # -- symmetry breaking ---------------------------------------------------------
    def _symmetry_breaking(self) -> None:
        self._symmetry_breaking_elastic()
        self._symmetry_breaking_inelastic()

    def _symmetry_breaking_inelastic(self) -> None:
        """Chain stage order over interchangeable inelastic nodes.

        Two always-placed nodes are interchangeable when they have the same
        ALU costs, anchor single instances of the same register family, and
        have identical precedence/exclusion neighborhoods (outside the
        group). Statically-unrolled structures (e.g. SketchLearn's nine
        levels) otherwise make the MILP explore S!-ish permutations.
        """
        lm = self.layout
        groups: dict[tuple, list] = {}
        for node in lm.graph.nodes:
            if any(inst.symbolic is not None for inst in node.instances):
                continue
            nid = node.node_id
            fams = tuple(sorted(
                fam for inst in node.instances for fam, _ in inst.registers
            ))
            costs = tuple(sorted(
                (self.target.hf(i.cost), self.target.hl(i.cost), i.cost.hash_ops)
                for i in node.instances
            ))
            key = (
                fams,
                costs,
                frozenset(lm.graph.precedence_in[nid]),
                frozenset(lm.graph.precedence_out[nid]),
            )
            groups.setdefault(key, []).append(node)
        for (fams, costs, pin, pout), nodes in groups.items():
            if len(nodes) < 2:
                continue
            ids = {n.node_id for n in nodes}
            # Exclusion neighborhoods must match outside the group.
            shapes = {
                frozenset(lm.graph.exclusion[n.node_id] - ids) for n in nodes
            }
            if len(shapes) != 1:
                continue
            # Intra-group exclusion must be uniform (all-pairs or none).
            intra_sizes = {
                len(lm.graph.exclusion[n.node_id] & ids) for n in nodes
            }
            if intra_sizes not in ({0}, {len(nodes) - 1}):
                continue
            nodes.sort(key=lambda n: n.node_id)
            for a, b in zip(nodes, nodes[1:]):
                self._order(a, b, 0, f"symbreak_ne[{a.label}<={b.label}]")

    def _symmetry_breaking_elastic(self) -> None:
        lm = self.layout
        for sym, count in lm.counts.items():
            # First template of this symbolic: earliest instance per iteration.
            per_iter: dict[int, ActionInstance] = {}
            for inst in lm.instances:
                if inst.symbolic == sym and inst.iteration not in per_iter:
                    per_iter[inst.iteration] = inst
            nodes = []
            seen_nodes = set()
            for i in range(count):
                inst = per_iter.get(i)
                if inst is None:
                    return
                node = lm.graph.node_of(inst)
                if node.node_id in seen_nodes:
                    return  # shared nodes across iterations: skip breaking
                seen_nodes.add(node.node_id)
                nodes.append(node)
            for i in range(len(nodes) - 1):
                self._order(nodes[i], nodes[i + 1], 0, f"symbreak[{sym},{i}]")

    # ------------------------------------------------------------ re-encoding --
    def encode_assignment(
        self,
        symbol_values: dict[str, int],
        instance_stage: dict[int, int | None],
        register_alloc: dict[tuple[str, int], tuple[int, int]],
        iteration_active: dict[tuple[str, int], bool],
    ) -> dict | None:
        """Translate a decoded layout back into an ILP variable assignment.

        Returns ``None`` when the layout cannot be expressed in this
        model (e.g. instances of one dependency node mapped to different
        stages, which happens when the instance universe shifted between
        targets, or a node placed outside its stage window). The result
        is *not* feasibility-checked here — callers gate on
        :meth:`Model.is_feasible` — but ``min()`` aux variables are
        repaired so a genuinely feasible layout round-trips. Must be
        called after the objective is attached (aux vars exist then).
        """
        lm = self.layout
        values: dict = {var: 0.0 for var in lm.x.values()}

        # x: node placements, derived from per-instance stages.
        node_stage: dict[int, int | None] = {}
        by_uid = {inst.uid: inst for inst in lm.instances}
        for uid, stage in instance_stage.items():
            inst = by_uid.get(uid)
            if inst is None:
                continue  # instance existed only under the old bounds
            nid = lm.graph.node_of(inst).node_id
            if nid in node_stage and node_stage[nid] != stage:
                return None  # grouped instances must share a stage
            node_stage[nid] = stage
        for nid, stage in node_stage.items():
            if stage is None:
                continue
            var = lm.x.get((nid, stage))
            if var is None:
                return None  # stage outside the node's window on this target
            values[var] = 1.0

        for (sym, i), var in lm.it.items():
            values[var] = 1.0 if iteration_active.get((sym, i), False) else 0.0
        for sym, var in lm.size_vars.items():
            val = float(symbol_values.get(sym, var.lb))
            values[var] = min(max(val, var.lb), var.ub)
        for sym, var in lm.free_sym_vars.items():
            val = float(symbol_values.get(sym, var.lb))
            values[var] = min(max(val, var.lb), var.ub)
        for var in lm.m.values():
            values[var] = 0.0
        assigned: dict = {}
        for key, (stage, cells) in register_alloc.items():
            group = lm.group_of.get(key)
            var = lm.m.get((group.gid, stage)) if group is not None else None
            if var is None:
                return None
            # Members of one group share the variable: they must agree.
            if assigned.setdefault(group.gid, (stage, cells)) != (stage, cells):
                return None
            values[var] = min(float(cells), var.ub)
        # Aux vars from min() linearization: tight value is the arm min.
        for aux, arms in lm.min_aux:
            values[aux] = min(arm.value(values) for arm in arms)
        return values

    # ------------------------------------------------------------------- solve --
    def solve(
        self,
        utility: ast.Expr | None = None,
        time_limit: float | None = None,
        utility_terms=None,
        floors: dict[str, float] | None = None,
    ) -> LayoutSolution:
        """Build (if needed), attach the objective, solve, and decode.

        ``utility_terms`` — (module, weight, term-expr) triples from the
        linker — make the objective the explicit weighted sum of
        per-module utilities, decoded into
        :attr:`LayoutSolution.utility_breakdown`. ``floors`` (module →
        minimum weighted utility) become hard constraints. When
        ``utility_terms`` is given it takes precedence over ``utility``
        (the latter is the same expression unsplit).

        The layout comes from :meth:`search` (the start step, then the
        search if the start needs one). Every solve ends with
        :meth:`resolve_sizes`, so the sizes
        returned are optimal for the structure found and not merely
        within the solver's stopping gap of it, and then with
        :meth:`canonical_placement`, so the stages do not depend on where
        the search stopped."""
        from .utility import linearize_term, linearize_utility

        lm = self.layout
        if lm.graph is None:
            self.build()
        objective = LinExpr()
        term_exprs: dict[str, LinExpr] = {}
        if utility_terms:
            for module, weight, term in utility_terms:
                lin = linearize_term(term, lm, self.info) * float(weight)
                if module in term_exprs:
                    term_exprs[module] = term_exprs[module] + lin
                else:
                    term_exprs[module] = lin
                objective += lin
        elif utility is not None:
            objective += linearize_utility(utility, lm, self.info)
        lm.model.maximize(objective, terms=term_exprs)
        for module, floor in sorted((floors or {}).items()):
            lin = term_exprs.get(module)
            if lin is None:
                raise UtilityError(
                    f"utility floor names module {module!r}, which "
                    "contributes no utility term"
                )
            lm.model.add_constr(lin >= float(floor),
                                name=f"util_floor[{module}]")
        solution = self.search(time_limit)
        if solution.status is SolveStatus.INFEASIBLE:
            raise LayoutInfeasibleError(
                "the layout ILP is infeasible: the program cannot fit on "
                f"target {self.target.name!r} at any size"
            )
        if solution.status is SolveStatus.TIMEOUT and not solution.has_incumbent:
            raise LayoutTimeoutError(
                f"the layout ILP hit its time limit ({time_limit}s) on "
                f"target {self.target.name!r} before finding any incumbent",
                time_limit=time_limit,
                backend=solution.backend,
            )
        solution = self.resolve_sizes(solution, time_limit)
        start = self._canonical_start
        if start is not None and all(solution.values[var] == start[var]
                                     for var in self._symbol_columns()):
            # The start's placement is this very pass, already solved.
            solution = dataclasses.replace(solution, values=start)
        else:
            solution = self.canonical_placement(solution, time_limit)
        return self._decode(solution, utility, utility_terms)

    def search(self, time_limit: float | None = None) -> Solution:
        """The start step, then the search when the start needs one.

        :meth:`start` gives the LP bound B and, mostly, a feasible
        layout rounded from the LP. When the utility lies on a lattice
        u + g·ℤ (:meth:`utility_lattice`, u the start's utility), B
        rounds down to B′ = u + g·⌊(B − u)/g⌋: no layout lies between B′
        and B. A start whose utility is within HiGHS's own stopping rule
        (1e-4 relative) of that bound is one the search would stop at,
        so it is returned unsearched: ``incumbent_source``
        ``"lp-certified"``, no nodes, the bound as ``mip_dual_bound``.
        Otherwise the search runs seeded with the start (``"seeded"``),
        or plain when there is none (``""``). Every solve takes
        ``time_limit``; the seconds add up.
        """
        lp, start = self.start(time_limit)
        if lp.status is SolveStatus.INFEASIBLE:
            return lp           # no fractional layout, so no integral one
        if start is not None:
            bound, utility = lp.objective, start.objective
            step = self.utility_lattice()
            if step is not None:
                # No integral layout lies strictly between two lattice
                # points, so B rounds down to the last one at or under it.
                step = float(step)
                bound = utility + step * math.floor(
                    (bound - utility) / step + _INT_TOL)
            gap = max(0.0, bound - utility) / max(1.0, abs(utility))
            if gap <= _REL_GAP:
                return dataclasses.replace(
                    start, status=SolveStatus.OPTIMAL,
                    solve_seconds=lp.solve_seconds,
                    incumbent_source="lp-certified",
                    mip_dual_bound=bound, mip_gap=gap,
                )
        searched = solve(self.layout.model, time_limit=time_limit,
                         warm_start=None if start is None else start.values)
        return dataclasses.replace(
            searched,
            solve_seconds=lp.solve_seconds + searched.solve_seconds,
            incumbent_source="" if start is None else "seeded",
        )

    def utility_lattice(self) -> Fraction | None:
        """The step g of the objective's lattice, or None: at every
        feasible integral layout the objective lies on u + g·ℤ, u being
        any one layout's utility.

        g is the rational gcd of the coefficients of every integer
        objective column and of every cell group whose ``m`` columns all
        enter the objective with one coefficient: such a group's total
        is 0 or ``cells`` (#9, #10), an integer when ``cells`` is an
        integer-affine expression of integer columns. Any other
        continuous column (a ``min()`` aux variable), or a coefficient
        no fraction with a denominator up to 10⁶ reproduces, leaves no
        lattice. Needs the objective attached.
        """
        lm = self.layout
        terms = dict(lm.model.objective.expr.terms)
        coefs = []
        for group in lm.groups:
            # ``m`` is continuous only where ``cells`` is integer-affine
            # in the integer size columns (:meth:`_make_variables`);
            # integer ``m`` columns are taken one by one below.
            cols = [lm.m[(group.gid, s)] for s in lm.window[group.anchor.node_id]]
            if not cols or cols[0].vartype is not VarType.CONTINUOUS:
                continue
            shared = {terms.pop(var, 0.0) for var in cols}
            if shared == {0.0}:
                continue
            if len(shared) > 1:
                return None
            coefs.append(shared.pop())
        for var, coef in terms.items():
            if coef == 0.0:
                continue
            if var.vartype is VarType.CONTINUOUS:
                return None
            coefs.append(coef)
        steps = []
        for coef in coefs:
            step = abs(Fraction(coef).limit_denominator(10 ** 6))
            if abs(float(step) - abs(coef)) > 1e-12 * abs(coef):
                return None
            steps.append(step)
        if not steps:
            return None
        return Fraction(
            functools.reduce(math.gcd, (s.numerator for s in steps)),
            functools.reduce(math.lcm, (s.denominator for s in steps)))

    def start(self, time_limit: float | None = None
              ) -> tuple[Solution, Solution | None]:
        """``(LP relaxation, start)``: the relaxation's optimum, whose
        objective bounds the utility, and a feasible layout built from
        it, or None. The relaxation's ``solve_seconds`` are those of the
        whole step.

        Each loop symbolic takes ⌊Σᵢ itᵢ⌋ iterations of the relaxation,
        the first ones (#16 order), and the relaxation is solved again
        with ``it`` fixed there. Its point with the integer variables
        rounded is the start when it is feasible. Otherwise the sizes
        and free symbolics are fixed at ⌊value⌋ as well and the
        placement is solved under :meth:`canonical_placement`'s
        objective at zero gap — the very solve that pass would make for
        these values, so a layout that ends at the same symbol values
        needs no second one; when there is no placement there is no
        start.
        ``min()`` aux variables take the least of their arms, so the
        start's objective is its utility.
        """
        lm = self.layout
        self._canonical_start = None
        relaxed = lm.model.relaxation()
        lp = solve(relaxed, time_limit=time_limit)
        values, seconds = None, lp.solve_seconds
        if lp.status is SolveStatus.OPTIMAL:
            values, seconds = self._start_point(relaxed, lp, time_limit)
        lp = dataclasses.replace(lp, solve_seconds=seconds)
        if values is None:
            return lp, None
        return lp, Solution(
            status=SolveStatus.FEASIBLE,
            objective=lm.model.objective.expr.value(values),
            values=values,
            backend=lp.backend,
        )

    def _start_point(self, relaxed, lp: Solution, time_limit: float | None
                     ) -> tuple[dict | None, float]:
        """:meth:`start`'s layout from the relaxation's optimum ``lp``,
        or None; with the seconds of ``lp`` and of the solves here."""
        lm = self.layout
        seconds = lp.solve_seconds
        fixed = {}
        for sym, count in lm.counts.items():
            active = math.floor(_INT_TOL + sum(
                lp.values[lm.it[(sym, i)]] for i in range(count)))
            fixed.update((lm.it[(sym, i)], float(i < active))
                         for i in range(count))
        restricted = lp                     # no loop symbolic to fix
        if fixed:
            restricted = solve(relaxed, time_limit=time_limit, fixed=fixed)
            seconds += restricted.solve_seconds
            if restricted.status is not SolveStatus.OPTIMAL:
                return None, seconds
        values = self._rounded(restricted.values)
        if lm.model.is_feasible(values):
            return values, seconds
        fixed.update(
            (var, float(math.floor(restricted.values[var] + _INT_TOL)))
            for var in (*lm.size_vars.values(), *lm.free_sym_vars.values()))
        placed = solve(self._earliest(), time_limit=time_limit,
                       fixed=fixed, rel_gap=0.0)
        seconds += placed.solve_seconds
        if not placed.has_incumbent:
            return None, seconds
        values = self._rounded(placed.values)
        if placed.status is SolveStatus.OPTIMAL:
            self._canonical_start = values
        return values, seconds

    def _rounded(self, values) -> dict:
        """``values`` with the model's integer variables rounded and
        each ``min()`` aux variable at the least of its arms: the most
        its rows allow, and the term's value."""
        lm = self.layout
        out = {
            var: values[var] if var.vartype is VarType.CONTINUOUS
            else float(round(values[var]))
            for var in lm.model.variables
        }
        for aux, arms in lm.min_aux:
            out[aux] = min(arm.value(out) for arm in arms)
        return out

    def resolve_sizes(
        self,
        solution: Solution,
        time_limit: float | None = None,
    ) -> Solution:
        """Re-solve the sizes to zero gap with the structure fixed.

        HiGHS stops at a relative gap of 1e-4 and calls what it holds
        optimal: on a 126 154-unit objective that is room for a
        ``kv_cols`` two short of the best. With every ``x`` and ``it``
        pinned at ``solution``'s values what remains — the integer size
        variables plus continuous ``m`` — solves exactly in milliseconds,
        so which within-gap point the search stopped at no longer shows
        in the sizes. Returns ``solution`` itself when the re-solve does
        not finish or does not improve on it; the status, node count and
        bound stay those of the search, the seconds add up.
        """
        lm = self.layout
        fixed = {
            var: solution.values[var]
            for var in (*lm.x.values(), *lm.it.values())
        }
        polished = solve(lm.model, time_limit=time_limit, fixed=fixed,
                         rel_gap=0.0)
        seconds = solution.solve_seconds + polished.solve_seconds
        if not polished.status.ok or polished.objective <= solution.objective:
            return dataclasses.replace(solution, solve_seconds=seconds)
        gap = solution.mip_gap
        if solution.mip_dual_bound is not None and polished.objective:
            gap = abs(solution.mip_dual_bound - polished.objective) \
                / abs(polished.objective)
        return dataclasses.replace(
            solution,
            objective=polished.objective,
            values=polished.values,
            solve_seconds=seconds,
            mip_gap=gap,
        )

    def canonical_placement(
        self,
        solution: Solution,
        time_limit: float | None = None,
    ) -> Solution:
        """Pick one stage placement for ``solution``'s symbol values.

        Fixes ``it`` and every size and free symbolic at ``solution``'s
        values, so the utility is fixed too, and minimises
        ``Σ s·(1 + rank(n)/(N+1)²)·x[n,s]`` at zero gap, ``rank`` being
        the node's position in ascending id order: a stage sum with a
        weight of its own per node, so two placements rarely tie. The
        result depends on the symbol values, not on where in HiGHS's
        1e-4 gap the search stopped. Returns ``solution`` with
        the placement's values when the pass is OPTIMAL, and
        ``solution`` itself otherwise (under a ``time_limit``, say); the
        status, node count and bound stay the search's, the seconds add
        up.
        """
        fixed = {var: solution.values[var] for var in self._symbol_columns()}
        placed = solve(self._earliest(), time_limit=time_limit, fixed=fixed,
                       rel_gap=0.0)
        seconds = solution.solve_seconds + placed.solve_seconds
        if placed.status is not SolveStatus.OPTIMAL:
            return dataclasses.replace(solution, solve_seconds=seconds)
        return dataclasses.replace(solution, values=placed.values,
                                   solve_seconds=seconds)

    def _symbol_columns(self) -> tuple:
        """The columns that fix the symbol values, hence the utility:
        ``it``, the sizes and the free symbolics."""
        lm = self.layout
        return (*lm.it.values(), *lm.size_vars.values(),
                *lm.free_sym_vars.values())

    def _earliest(self):
        """The model's rows under the canonical objective: minimise
        ``Σ s·(1 + rank(n)/(N+1)²)·x[n,s]``, ``rank`` being the node's
        position in ascending id order."""
        lm = self.layout
        rank = {nid: r for r, nid in
                enumerate(sorted(node.node_id for node in lm.graph.nodes))}
        tie = 1.0 / (len(rank) + 1) ** 2
        earliest = copy.copy(lm.model)     # same rows, its own objective
        earliest.minimize(LinExpr({
            var: s * (1.0 + rank[nid] * tie) for (nid, s), var in lm.x.items()
        }))
        return earliest

    def _decode(self, solution: Solution, utility: ast.Expr | None = None,
                utility_terms=None) -> LayoutSolution:
        """Read the layout off ``solution``. ``objective`` (and the
        per-module breakdown) is the utility evaluated at the decoded
        symbol values, not ``solution.objective``: on integers, equal
        symbol values give a bit-equal utility, whichever pass, back end
        or term order produced them."""
        from .utility import utility_at

        lm = self.layout
        node_stage: dict[int, int | None] = {
            node.node_id: next(
                (s for s in lm.window[node.node_id]
                 if solution.int_value(lm.x[(node.node_id, s)])),
                None,
            )
            for node in lm.graph.nodes
        }
        instance_stage = {
            inst.uid: node_stage[lm.graph.node_of(inst).node_id]
            for inst in lm.instances
        }
        iteration_active = {
            key: bool(solution.int_value(var)) for key, var in lm.it.items()
        }
        # Every member of a cell group gets the group's (stage, cells).
        group_alloc = {
            gid: (s, solution.int_value(var))
            for (gid, s), var in lm.m.items()
            if solution.int_value(var) > 0
        }
        register_alloc: dict[tuple[str, int], tuple[int, int]] = {
            key: group_alloc[group.gid]
            for key, group in lm.group_of.items()
            if group.gid in group_alloc
        }
        symbol_values: dict[str, int] = {}
        for sym in self.info.symbolics:
            if sym in lm.counts:
                symbol_values[sym] = sum(
                    1
                    for i in range(lm.counts[sym])
                    if iteration_active.get((sym, i), False)
                )
            elif sym in lm.size_vars:
                symbol_values[sym] = solution.int_value(lm.size_vars[sym])
            elif sym in lm.free_sym_vars:
                symbol_values[sym] = solution.int_value(lm.free_sym_vars[sym])
        objective, breakdown = utility_at(
            symbol_values, self.info.consts, utility, utility_terms)
        return LayoutSolution(
            status=solution.status,
            objective=objective,
            symbol_values=symbol_values,
            node_stage=node_stage,
            instance_stage=instance_stage,
            register_alloc=register_alloc,
            iteration_active=iteration_active,
            solve_seconds=solution.solve_seconds,
            backend=solution.backend,
            num_variables=lm.model.num_variables,
            num_constraints=lm.model.num_constraints,
            nodes_explored=solution.nodes_explored,
            incumbent_source=solution.incumbent_source,
            mip_dual_bound=solution.mip_dual_bound,
            mip_gap=solution.mip_gap,
            utility_breakdown=breakdown,
        )


def _affine_expr(
    expr: ast.Expr,
    env: dict[str, LinExpr],
    consts: dict[str, int],
) -> LinExpr:
    """Evaluate a static expression to a LinExpr, affine in ``env`` names."""
    if isinstance(expr, ast.IntLit):
        return LinExpr(constant=expr.value)
    if isinstance(expr, ast.FloatLit):
        return LinExpr(constant=expr.value)
    if isinstance(expr, ast.Name):
        if expr.ident in env:
            return env[expr.ident].copy()
        if expr.ident in consts:
            return LinExpr(constant=consts[expr.ident])
        raise UtilityError(f"cannot use {expr.ident!r} in a static linear expression")
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        return -_affine_expr(expr.operand, env, consts)
    if isinstance(expr, ast.BinaryOp):
        if expr.op == "+":
            return _affine_expr(expr.left, env, consts) + _affine_expr(
                expr.right, env, consts
            )
        if expr.op == "-":
            return _affine_expr(expr.left, env, consts) - _affine_expr(
                expr.right, env, consts
            )
        if expr.op == "*":
            left = _try_static(expr.left, consts)
            right = _try_static(expr.right, consts)
            if left is not None:
                return left * _affine_expr(expr.right, env, consts)
            if right is not None:
                return _affine_expr(expr.left, env, consts) * right
            raise UtilityError(
                "products of two symbolic expressions are not affine here"
            )
        if expr.op == "/":
            right = _try_static(expr.right, consts)
            if right:
                return _affine_expr(expr.left, env, consts) * (1.0 / right)
    raise UtilityError(
        f"expression is not affine in the symbolic values: {type(expr).__name__}"
    )


def _try_static(expr: ast.Expr, consts: dict[str, int]):
    try:
        return eval_static(expr, consts)
    except SemanticError:
        return None
