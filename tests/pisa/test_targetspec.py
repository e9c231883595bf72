"""JSON target-specification tests."""

import dataclasses
import json

import pytest

from repro.pisa.resources import tofino
from repro.pisa.targetspec import load_target, target_from_dict


def write_spec(target, path):
    """A spec file as a user writes one: the dataclass fields as JSON."""
    path.write_text(json.dumps(dataclasses.asdict(target), indent=2))


def minimal_spec(**overrides):
    spec = {
        "name": "custom",
        "stages": 8,
        "memory_bits_per_stage": 1 << 20,
        "stateful_alus_per_stage": 4,
        "stateless_alus_per_stage": 32,
        "phv_bits": 2048,
    }
    spec.update(overrides)
    return spec


class TestDictConversion:
    def test_minimal_spec(self):
        target = target_from_dict(minimal_spec())
        assert target.stages == 8
        assert target.hash_units_per_stage == 8  # default preserved

    def test_optional_fields(self):
        target = target_from_dict(minimal_spec(hash_units_per_stage=2,
                                               notes="lab switch"))
        assert target.hash_units_per_stage == 2
        assert target.notes == "lab switch"

    def test_missing_field_rejected(self):
        spec = minimal_spec()
        del spec["phv_bits"]
        with pytest.raises(ValueError, match="missing fields: phv_bits"):
            target_from_dict(spec)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fields: tcam"):
            target_from_dict(minimal_spec(tcam=4))

    def test_round_trip(self):
        target = tofino()
        assert target_from_dict(dataclasses.asdict(target)) == target

    def test_every_required_field_enforced(self):
        for field in ("name", "stages", "memory_bits_per_stage",
                      "stateful_alus_per_stage", "stateless_alus_per_stage",
                      "phv_bits"):
            spec = minimal_spec()
            del spec[field]
            with pytest.raises(ValueError, match=f"missing fields: {field}"):
                target_from_dict(spec)

    def test_multiple_missing_fields_all_named(self):
        spec = minimal_spec()
        del spec["stages"]
        del spec["phv_bits"]
        with pytest.raises(ValueError, match="stages, phv_bits"):
            target_from_dict(spec)


class TestFileIO:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "spec.json"
        write_spec(tofino(), path)
        assert load_target(path) == tofino()

    def test_round_trip_all_optional_fields(self, tmp_path):
        """Every ``_OPTIONAL`` field survives save → load at a
        non-default value."""
        spec = minimal_spec(
            hash_units_per_stage=3,
            stateful_weight=2.5,
            stateless_weight=0.75,
            hash_weight=1.5,
            notes="lab switch rev B",
        )
        target = target_from_dict(spec)
        path = tmp_path / "full.json"
        write_spec(target, path)
        loaded = load_target(path)
        assert loaded == target
        assert loaded.hash_units_per_stage == 3
        assert loaded.stateful_weight == 2.5
        assert loaded.stateless_weight == 0.75
        assert loaded.hash_weight == 1.5
        assert loaded.notes == "lab switch rev B"
        # The serialized form carries exactly the dataclass fields.
        data = json.loads(path.read_text())
        assert data == dataclasses.asdict(target)

    def test_load_rejects_missing_field(self, tmp_path):
        spec = minimal_spec()
        del spec["memory_bits_per_stage"]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(ValueError,
                           match="missing fields: memory_bits_per_stage"):
            load_target(path)

    def test_load_rejects_unknown_field(self, tmp_path):
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(minimal_spec(sram_blocks=96)))
        with pytest.raises(ValueError, match="unknown fields: sram_blocks"):
            load_target(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="JSON object"):
            load_target(path)

    def test_cli_target_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.structures import CMS_SOURCE

        spec_path = tmp_path / "spec.json"
        write_spec(target_from_dict(minimal_spec(name="labsw")), spec_path)
        prog = tmp_path / "cms.p4all"
        prog.write_text(CMS_SOURCE)
        assert main([
            "compile", str(prog), "--target-file", str(spec_path)
        ]) == 0
        out, err = capsys.readouterr()
        assert "labsw" in out  # target name in the generated header


class TestCliGraph:
    def test_dot_output(self, tmp_path, capsys):
        from repro.cli import main
        from repro.structures import CMS_SOURCE

        prog = tmp_path / "cms.p4all"
        prog.write_text(CMS_SOURCE)
        assert main(["graph", str(prog), "--target", "toy3"]) == 0
        out, _ = capsys.readouterr()
        assert out.startswith("digraph")
        assert "style=dashed" in out  # exclusion edges rendered
        assert "cms_incr[0]" in out
