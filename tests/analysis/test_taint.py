"""Unit tests for the module-ownership taint analysis.

The star witness is the acceptance-criterion pair: tenant A deposits
register-derived state into a metadata field that feeds tenant B's hash
key. No register is *named* across the module boundary, so the legacy
name-based isolation check accepts the pair — the semantic taint pass
must reject it with a witness path.
"""

from __future__ import annotations

import pytest

from repro.analysis import build_ir, instantiate
from repro.analysis.taint import (
    APP_MODULE,
    FlowDiagnostic,
    cross_module_flows,
    field_owner,
    propagate_taint,
)
from repro.lang import check_program, parse_program
from repro.lang.symbols import ModuleNamespace

#: Pre-linked view of the leak: alpha's register value lands in
#: ``meta.shared_val``; beta hashes on it.
LEAKY_SOURCE = """\
symbolic int a_rows;
assume a_rows >= 1 && a_rows <= 1;
symbolic int b_slots;
assume b_slots >= 256 && b_slots <= 256;

struct metadata {
    bit<32> flow_id;
    bit<32> shared_val;
    bit<1> b_seen;
}

register<bit<32>>[1024][a_rows] a_reg;
register<bit<1>>[b_slots][1] b_reg;

action a_bump()[int i] {
    a_reg[i].add_read(meta.shared_val, hash(i, meta.flow_id), 1);
}

action b_set() {
    b_reg[0].swap(meta.b_seen, hash(7, meta.shared_val), 1);
}

control Ingress(inout metadata meta) {
    apply {
        for (i < a_rows) { a_bump()[i]; }
        b_set();
    }
}

optimize(a_rows * 1024 + b_slots);
"""


def _namespace(beta_owner: str = "beta") -> ModuleNamespace:
    return ModuleNamespace(
        modules=["alpha", "beta"],
        registers={"a_reg": "alpha", "b_reg": "beta"},
        actions={"a_bump": "alpha", "b_set": beta_owner},
        fields={"shared_val": "alpha", "b_seen": "beta"},
    )


def _instances(counts=None):
    info = check_program(parse_program(LEAKY_SOURCE, "leaky"))
    ir = build_ir(info, "Ingress")
    return ir, instantiate(ir, counts or {"a_rows": 1})


class TestPropagation:
    def test_registers_seed_their_owner(self):
        _, instances = _instances()
        result = propagate_taint(instances, _namespace())
        assert result.register_taint["a_reg"] >= {"alpha"}
        assert result.register_taint["b_reg"] >= {"beta"}

    def test_state_flows_through_metadata_into_foreign_sinks(self):
        _, instances = _instances()
        result = propagate_taint(instances, _namespace())
        # alpha's register value reaches its own output field...
        assert "alpha" in result.field_taint["meta.shared_val"]
        # ...and from there beta's hash key carries it into beta's state.
        assert "alpha" in result.field_taint["meta.b_seen"]
        assert "alpha" in result.register_taint["b_reg"]

    def test_taint_program_matches_manual_instantiation(self):
        # Instantiating the IR afresh at the same counts taints alike.
        ir, instances = _instances()
        ns = _namespace()
        via_ir = propagate_taint(instantiate(ir, {"a_rows": 1}), ns)
        manual = propagate_taint(instances, ns)
        assert via_ir.normalized() == manual.normalized()


class TestFlows:
    def test_semantic_pass_rejects_what_name_check_accepts(self):
        """The acceptance criterion: A writes a field feeding B's hash
        key. The name-based sweep sees no foreign register reference;
        the taint pass reports the flow with a witness."""
        from repro.link.linker import _check_isolation_names
        from repro.link.moduleir import module_ir_from_source

        from tests.property.generators import (
            leaky_reader_source,
            writer_module_source,
        )

        irs = [
            module_ir_from_source("alpha", writer_module_source("alpha")),
            module_ir_from_source(
                "beta", leaky_reader_source("beta", "alpha")),
        ]
        owner = {
            name: mod
            for ir in irs
            for name, (kind, mod) in ir.symbol_labels().items()
            if kind == "register"
        }
        assert _check_isolation_names(irs, owner, False, frozenset()) == []

        _, instances = _instances()
        ns = _namespace()
        flows = cross_module_flows(propagate_taint(instances, ns), ns)
        assert flows, "semantic pass must report the metadata leak"
        assert {(f.source, f.sink_module) for f in flows} == {
            ("alpha", "beta")
        }

    def test_witness_path_traces_back_to_the_register(self):
        _, instances = _instances()
        ns = _namespace()
        flows = cross_module_flows(propagate_taint(instances, ns), ns)
        by_sink = {f.sink: f for f in flows}
        flow = by_sink["meta.b_seen"]
        assert flow.witness[0] == "a_reg"
        assert flow.witness[-1] == "meta.b_seen"
        assert "meta.shared_val" in flow.witness
        assert any(v.startswith("b_set") for v in flow.via)
        text = flow.witness_text()
        assert text.startswith("a_reg") and "-[" in text

    def test_flows_are_deterministically_ordered(self):
        _, instances = _instances()
        ns = _namespace()
        result = propagate_taint(instances, ns)
        first = cross_module_flows(result, ns)
        second = cross_module_flows(result, ns)
        assert first == second
        assert first == sorted(
            first,
            key=lambda f: (f.source, f.sink_module, f.sink_kind, f.sink),
        )


class TestDeclassification:
    def test_app_owned_instances_propagate_nothing(self):
        """When the reader is app glue, combining modules is sanctioned:
        the same dataflow produces zero cross-module flows."""
        _, instances = _instances()
        ns = _namespace(beta_owner=APP_MODULE)
        result = propagate_taint(instances, ns)
        flows = cross_module_flows(result, ns)
        assert flows == []
        assert "alpha" not in result.register_taint["b_reg"]

    def test_unattributed_instances_propagate_nothing(self):
        _, instances = _instances()
        ns = _namespace()
        ns.actions.pop("b_set")  # b_set now resolves to no module
        ns.registers.pop("b_reg")
        ns.fields.pop("b_seen")
        result = propagate_taint(instances, ns)
        assert cross_module_flows(result, ns) == []


class TestHelpers:
    def test_field_owner_strips_prefix_and_index(self):
        ns = _namespace()
        assert field_owner("meta.shared_val", ns) == "alpha"
        assert field_owner("shared_val", ns) == "alpha"
        assert field_owner("meta.b_seen[2]", ns) == "beta"
        assert field_owner("meta.unknown", ns) is None

    def test_flow_diagnostic_render(self):
        flow = FlowDiagnostic(
            source="ctr", sink_module="spy", sink_kind="field",
            sink="meta.spy_val",
            witness=("ctr_reg", "meta.spy_val"), via=("spy_read[0]",),
        )
        assert flow.witness_text() == (
            "ctr_reg -[spy_read[0]]-> meta.spy_val"
        )
        rendered = str(flow)
        assert "'ctr'" in rendered and "'spy'" in rendered

    def test_empty_witness_falls_back_to_sink(self):
        flow = FlowDiagnostic(source="a", sink_module="b",
                              sink_kind="register", sink="b_reg")
        assert flow.witness_text() == "b_reg"
