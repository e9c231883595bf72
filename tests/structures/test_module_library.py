"""Library-wide module contract tests.

Every module factory must produce a prefix-consistent, semantically valid
fragment whose standalone source agrees with the factory output.
"""

import pytest

from repro.lang import check_program, parse_program
from repro.structures import (
    LIBRARY_SOURCES,
    bloom_module,
    cms_module,
    compose,
    hashtable_module,
    hierarchical_module,
    kv_module,
    matrix_module,
)

from tests.structures.reference import idtable_module

FACTORIES = {
    "cms": cms_module,
    "bloom": bloom_module,
    "kv": kv_module,
    "hashtable": hashtable_module,
    "hierarchical": hierarchical_module,
    "idtable": idtable_module,
    "matrix": matrix_module,
}


@pytest.mark.parametrize("name,factory", sorted(FACTORIES.items()))
class TestModuleContract:
    def test_default_module_composes_and_checks(self, name, factory):
        module = factory()
        source = compose(
            modules=[module],
            extra_metadata=["bit<32> flow_id;"],
            utility=module.utility_term or None,
        )
        info = check_program(parse_program(source, f"{name}.p4all"))
        for sym in module.symbolics:
            assert sym in info.symbolics

    def test_custom_prefix_isolates_names(self, name, factory):
        a = factory(prefix="alpha")
        b = factory(prefix="beta")
        source = compose(
            modules=[a, b],
            extra_metadata=["bit<32> flow_id;"],
        )
        info = check_program(parse_program(source))
        assert not (set(a.symbolics) & set(b.symbolics))
        for sym in a.symbolics + b.symbolics:
            assert sym in info.symbolics

    def test_all_declarations_prefixed(self, name, factory):
        module = factory(prefix="zzz")
        for sym in module.symbolics:
            assert sym.startswith("zzz_"), sym
        for field_line in module.metadata_fields:
            assert "zzz_" in field_line, field_line


class TestStandaloneSources:
    @pytest.mark.parametrize("name", sorted(LIBRARY_SOURCES))
    def test_source_checks(self, name):
        info = check_program(parse_program(LIBRARY_SOURCES[name], name))
        assert "Ingress" in info.controls
        assert info.program.optimize() is not None

    def test_package_data_matches_constants(self):
        from pathlib import Path

        import repro.structures as structures

        data_dir = Path(structures.__file__).parent / "p4all_src"
        for name, source in LIBRARY_SOURCES.items():
            on_disk = (data_dir / f"{name}.p4all").read_text()
            assert on_disk == source, f"{name}.p4all out of sync"
