"""Register array / register file semantics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.pisa.registers import RegisterArray, RegisterError, RegisterFile


class TestRegisterArray:
    def test_initially_zero(self):
        r = RegisterArray("r", 8, 32)
        assert all(r.read(i) == 0 for i in range(8))

    def test_write_read(self):
        r = RegisterArray("r", 8, 32)
        r.write(3, 77)
        assert r.read(3) == 77

    def test_write_masks_to_width(self):
        r = RegisterArray("r", 4, 8)
        r.write(0, 0x1FF)
        assert r.read(0) == 0xFF

    def test_index_wraps_modulo_size(self):
        r = RegisterArray("r", 4, 32)
        r.write(6, 5)
        assert r.read(2) == 5

    def test_add_returns_new_value_and_wraps(self):
        r = RegisterArray("r", 2, 8)
        assert r.add(0, 200) == 200
        assert r.add(0, 100) == (300 % 256)

    def test_min_max_update(self):
        r = RegisterArray("r", 2, 16)
        r.write(0, 50)
        assert r.max_update(0, 40) == 50
        assert r.max_update(0, 60) == 60
        assert r.min_update(0, 55) == 55
        assert r.min_update(0, 70) == 55

    def test_swap_returns_old(self):
        r = RegisterArray("r", 2, 16)
        r.write(1, 9)
        assert r.swap(1, 42) == 9
        assert r.read(1) == 42

    def test_cond_add(self):
        r = RegisterArray("r", 2, 16)
        assert r.cond_add(0, False, 5) == 0
        assert r.cond_add(0, True, 5) == 5
        assert r.read(0) == 5

    def test_size_bits(self):
        assert RegisterArray("r", 128, 32).size_bits == 4096

    def test_dump_is_a_copy(self):
        r = RegisterArray("r", 4, 32)
        dump = r.dump()
        dump[0] = 99
        assert r.read(0) == 0

    def test_load_shape_checked(self):
        r = RegisterArray("r", 4, 32)
        with pytest.raises(RegisterError, match="load shape"):
            r.load(np.zeros(5))

    def test_invalid_construction(self):
        with pytest.raises(RegisterError):
            RegisterArray("r", 0, 32)
        with pytest.raises(RegisterError):
            RegisterArray("r", 4, 65)

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 2**31)),
                    max_size=50))
    def test_model_matches_dict(self, ops):
        """Register behaves like a dict with modular indexing + masking."""
        r = RegisterArray("r", 16, 32)
        model = {}
        for idx, value in ops:
            r.write(idx, value)
            model[idx % 16] = value & 0xFFFFFFFF
        for idx, expected in model.items():
            assert r.read(idx) == expected


class TestRegisterFile:
    def test_create_and_stage_tracking(self):
        rf = RegisterFile()
        rf.create("cms[0]", 64, 32, stage=2)
        rf.create("cms[1]", 64, 32, stage=3)
        assert rf.stage_of("cms[0]") == 2
        assert [a.name for a in rf.in_stage(3)] == ["cms[1]"]
        assert rf.memory_bits_in_stage(2) == 64 * 32

    def test_duplicate_rejected(self):
        rf = RegisterFile()
        rf.create("r[0]", 4, 8, stage=0)
        with pytest.raises(RegisterError, match="created twice"):
            rf.create("r[0]", 4, 8, stage=0)

    def test_missing_lookup(self):
        with pytest.raises(RegisterError, match="no register instance"):
            RegisterFile().get("ghost[0]")

    def test_clear_all(self):
        rf = RegisterFile()
        rf.create("a[0]", 4, 8, stage=0)
        rf.get("a[0]").write(0, 3)
        rf.clear_all()
        assert rf.get("a[0]").read(0) == 0

    def test_family_rows_are_slices_of_one_block(self):
        rf = RegisterFile()
        block = rf.create_family("cms", [(1, 4, 8, 3), (0, 2, 8, 2)])
        assert rf.block("cms") is block and block.shape == (6,)
        assert rf.stage_of("cms[1]") == 3
        rf.get("cms[0]").write(1, 5)
        rf.get("cms[1]").load([1, 2, 3, 300])   # in place, masked
        assert block.tolist() == [0, 5, 1, 2, 3, 300 & 255]
        assert rf.get("cms[1]").offset == 2
        assert rf.block("ghost") is None
        with pytest.raises(RegisterError, match="created twice"):
            rf.create_family("dup", [(0, 2, 8, 0), (0, 2, 8, 1)])


class TestOccupancy:
    def test_nonzero_cells_and_occupancy(self):
        r = RegisterArray("r", 8, 32)
        assert r.nonzero_cells() == 0
        assert r.occupancy == 0.0
        r.write(0, 5)
        r.write(3, 1)
        assert r.nonzero_cells() == 2
        assert r.occupancy == pytest.approx(0.25)


class TestStateSnapshots:
    def make_file(self):
        rf = RegisterFile()
        rf.create("a[0]", 4, 32, stage=0)
        rf.create("b[0]", 8, 16, stage=1)
        rf.get("a[0]").write(1, 11)
        rf.get("b[0]").write(2, 22)
        return rf

    def test_export_import_round_trip(self):
        rf = self.make_file()
        snapshot = rf.export_state()
        rf.clear_all()
        loaded = rf.import_state(snapshot)
        assert sorted(loaded) == ["a[0]", "b[0]"]
        assert rf.get("a[0]").read(1) == 11
        assert rf.get("b[0]").read(2) == 22

    def test_export_is_a_snapshot_not_a_view(self):
        rf = self.make_file()
        snapshot = rf.export_state()
        rf.get("a[0]").write(1, 99)
        assert snapshot["a[0]"][1] == 11

    def test_import_skips_mismatched_shapes(self):
        rf = self.make_file()
        snapshot = rf.export_state()
        other = RegisterFile()
        other.create("a[0]", 4, 32, stage=0)   # matches
        other.create("b[0]", 16, 16, stage=1)  # resized: skipped
        loaded = other.import_state(snapshot)
        assert loaded == ["a[0]"]
        assert other.get("b[0]").read(2) == 0

    def test_import_strict_raises_on_mismatch(self):
        rf = self.make_file()
        snapshot = rf.export_state()
        other = RegisterFile()
        other.create("a[0]", 4, 32, stage=0)
        with pytest.raises(RegisterError, match="no matching array"):
            other.import_state(snapshot, strict=True)
