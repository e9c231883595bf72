"""Module-ownership taint analysis over the elaborated dependency IR.

The linker's original isolation check was *syntactic*: a module touching
a register **name** owned by another module raised ``IsolationError``,
but nothing stopped tenant A's state from influencing tenant B's output
through a chain of metadata writes, hash seeds, or table actions. This
module implements the semantic check in the style of P4BID-like
information-flow systems:

* **Labels** are sets of module names — the lattice is the powerset of
  modules ordered by inclusion, with join = union. A label on a field or
  register reads "these modules' code/state influenced this value".
* **Sources**: every register family owned by module *M* starts tainted
  ``{M}`` (persistent state is what the isolation property protects);
  packet-header and metadata fields start untainted (they are the
  per-packet input, owned by whoever the packet came from).
* **Propagation** is a forward may-analysis over the same
  :class:`~repro.analysis.ir.ActionInstance` effect sets the dependency
  graph (:mod:`repro.analysis.dependencies`) is built from: an instance
  of module *m* joins the labels of everything it reads (fields, hash
  inputs, guards, touched registers), adds ``{m}``, and writes the
  result into everything it writes. Register families are both sources
  and sinks, which closes the loop across packets.
* **Declassification**: instances owned by the application glue
  (:data:`APP_MODULE`) propagate *nothing* — the app explicitly
  composing module results (e.g. routing on a sketch's minimum) is the
  sanctioned way to combine tenants, exactly like a ``declassify`` in
  IFC systems.

The fixpoint is computed by chaotic iteration, which for a monotone
system over a finite lattice converges to the least fixpoint regardless
of instance order — the property the driver's plan-level cross-check
(:func:`repro.pisa.plan.plan_taint`) relies on: both passes solve the
same equations over different IRs, so any disagreement is a lowering
bug, not an ordering artifact.

A **violation** is a sink (field or register family) owned by module *B*
whose label contains some other module *A*: tenant A's state/code
influences tenant B's output. Each violation is reported as a
:class:`FlowDiagnostic` carrying a witness path through the dataflow
graph, reconstructed from per-label origin bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import ActionInstance, module_of_instance

__all__ = [
    "APP_MODULE",
    "FlowDiagnostic",
    "TaintResult",
    "propagate_taint",
    "cross_module_flows",
    "field_owner",
]

#: Owner label of application glue (mirrors ``repro.link.APP_MODULE``;
#: re-declared here so ``analysis`` never imports ``link``).
APP_MODULE = "(app)"

_EMPTY: frozenset[str] = frozenset()


@dataclass(frozen=True)
class FlowDiagnostic:
    """A witnessed cross-module information flow.

    ``source`` state influenced a sink owned by ``sink_module``; the
    ``witness`` tuple is the node path (register families and PHV field
    keys) from a source of the label to the sink, and ``via`` the action
    instances that carried it between consecutive nodes.
    """

    source: str
    sink_module: str
    sink_kind: str  # "field" | "register"
    sink: str       # PHV field key or register family name
    witness: tuple[str, ...] = ()
    via: tuple[str, ...] = ()

    def witness_text(self) -> str:
        """``ctr_reg -[spy_read[0]]-> meta.spy_val`` style path."""
        if not self.witness:
            return self.sink
        parts = [self.witness[0]]
        for i, node in enumerate(self.witness[1:]):
            step = self.via[i] if i < len(self.via) else "?"
            parts.append(f"-[{step}]-> {node}")
        return " ".join(parts)

    def render(self) -> str:
        kind = "register" if self.sink_kind == "register" else "field"
        return (
            f"cross-module flow: state of module '{self.source}' reaches "
            f"{kind} '{self.sink}' owned by module '{self.sink_module}' "
            f"(witness: {self.witness_text()})"
        )

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


# Dataflow nodes: ("field", phv_field_key) | ("reg", register_family).
_Node = tuple[str, str]


def _node_name(node: _Node) -> str:
    return node[1]


@dataclass
class TaintResult:
    """Fixpoint labels plus the origin bookkeeping for witnesses."""

    field_taint: dict[str, frozenset[str]] = field(default_factory=dict)
    register_taint: dict[str, frozenset[str]] = field(default_factory=dict)
    #: (node, label) -> (predecessor node or None, carrying instance label)
    origin: dict[tuple[_Node, str], tuple[_Node | None, str | None]] = (
        field(default_factory=dict))

    def taint_of(self, node: _Node) -> frozenset[str]:
        kind, name = node
        store = self.register_taint if kind == "reg" else self.field_taint
        return store.get(name, _EMPTY)

    def witness(self, sink_kind: str, sink: str,
                label: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Node path and carrying instances from a source of ``label``
        to the sink, walking the origin chain backwards."""
        node: _Node = ("reg" if sink_kind == "register" else "field", sink)
        nodes = [_node_name(node)]
        vias: list[str] = []
        seen = {node}
        while True:
            entry = self.origin.get((node, label))
            if entry is None:
                break
            prev, via = entry
            if via is not None:
                vias.insert(0, via)
            if prev is None or prev in seen:
                if prev is not None:
                    nodes.insert(0, _node_name(prev))
                break
            seen.add(prev)
            nodes.insert(0, _node_name(prev))
            node = prev
        return tuple(nodes), tuple(vias)

    def normalized(self) -> tuple[dict[str, frozenset[str]],
                                  dict[str, frozenset[str]]]:
        """Non-empty label maps only — the shape the driver cross-checks
        against the plan-level pass."""
        return (
            {k: v for k, v in self.field_taint.items() if v},
            {k: v for k, v in self.register_taint.items() if v},
        )


def field_owner(key: str, namespace) -> str | None:
    """Owning module of a PHV field key like ``meta.cms_count[1]``."""
    base = key.split("[", 1)[0]
    if base.startswith("meta."):
        base = base[len("meta."):]
    return namespace.fields.get(base)


def _instance_nodes(inst: ActionInstance) -> tuple[
        list[_Node], list[_Node]]:
    """(inputs, outputs) dataflow nodes of one instance.

    Register families appear on both sides: the effect collector folds
    read-modify-write accesses into one ``registers`` set, and a
    may-analysis must treat any touched family as both source and sink.
    """
    families = sorted({family for family, _ in inst.registers})
    inputs: list[_Node] = [("field", k) for k in sorted(inst.reads)]
    inputs += [("reg", f) for f in families]
    outputs: list[_Node] = [("field", k) for k in sorted(inst.writes)]
    outputs += [("reg", f) for f in families]
    return inputs, outputs


def propagate_taint(
    instances: list[ActionInstance],
    namespace,
    app_module: str = APP_MODULE,
) -> TaintResult:
    """Forward taint fixpoint over elaborated action instances.

    ``namespace`` is a :class:`~repro.lang.symbols.ModuleNamespace`
    (register/field/action ownership). Instances that resolve to the
    application glue — or to no module at all — act as declassifiers.
    """
    result = TaintResult()
    # Seed: persistent state carries its owner's label.
    for family, owner in namespace.registers.items():
        if owner != app_module:
            result.register_taint[family] = frozenset((owner,))
            result.origin[(("reg", family), owner)] = (None, None)

    modules = [module_of_instance(inst, namespace) for inst in instances]
    changed = True
    while changed:
        changed = False
        for inst, module in zip(instances, modules):
            inputs, outputs = _instance_nodes(inst)
            if module is None or module == app_module:
                # Declassified: the app combining module outputs is the
                # sanctioned composition point.
                continue
            carried: set[str] = {module}
            for node in inputs:
                carried |= result.taint_of(node)
            for out in outputs:
                kind, name = out
                store = (result.register_taint if kind == "reg"
                         else result.field_taint)
                have = store.get(name, _EMPTY)
                new = carried - have
                if not new:
                    continue
                store[name] = have | new
                changed = True
                for label in sorted(new):
                    if (out, label) in result.origin:
                        continue
                    prev = next(
                        (n for n in inputs
                         if label in result.taint_of(n) and n != out),
                        None,
                    )
                    result.origin[(out, label)] = (prev, inst.label)
    return result


def cross_module_flows(result: TaintResult, namespace,
                       app_module: str = APP_MODULE) -> list[FlowDiagnostic]:
    """All sinks owned by one module but influenced by another."""
    flows: list[FlowDiagnostic] = []
    for key in sorted(result.field_taint):
        owner = field_owner(key, namespace)
        if owner is None or owner == app_module:
            continue
        for label in sorted(result.field_taint[key]):
            if label == owner or label == app_module:
                continue
            nodes, vias = result.witness("field", key, label)
            flows.append(FlowDiagnostic(
                source=label, sink_module=owner, sink_kind="field",
                sink=key, witness=nodes, via=vias,
            ))
    for family in sorted(result.register_taint):
        owner = namespace.registers.get(family)
        if owner is None or owner == app_module:
            continue
        for label in sorted(result.register_taint[family]):
            if label == owner or label == app_module:
                continue
            nodes, vias = result.witness("register", family, label)
            flows.append(FlowDiagnostic(
                source=label, sink_module=owner, sink_kind="register",
                sink=family, witness=nodes, via=vias,
            ))
    flows.sort(key=lambda f: (f.source, f.sink_module, f.sink_kind, f.sink))
    return flows
