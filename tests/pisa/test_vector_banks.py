"""Banked vector plans: k switches that run one layout keep their
registers as banks of one :class:`RegisterBanks` set, and one batch
serves every switch's lanes — exactly as each switch alone would."""

import hashlib

import numpy as np
import pytest

from repro.apps.netcache import netcache_linked
from repro.core import compile_linked
from repro.pisa import Pipeline, RegisterBanks, RegisterError

from .test_vector_wide import APPS, batch_columns, t6

#: sha256 of each app's one-bank vector plan source on ``t6``. A lone
#: pipeline is a one-bank set, and banking added nothing to its source:
#: these are the digests from before banks existed. Re-record them only
#: with a change that means to alter the generated code.
ONE_BANK_SOURCES = {
    "cms": "831ef68778a5cd002c6f273460b4eae8679953ada0b279b01684435381502f0c",
    "conquest":
        "3dcf44063f7f2e0d130ade3162f9fd030bcc9f326ac44ceb8823f2e5e7b9f478",
    "netcache":
        "365bffcf70d278f7e84bbda5eabf6b7433dc6240ba394e4bdb8ad8db54b949c8",
    "netcache-linked":
        "365bffcf70d278f7e84bbda5eabf6b7433dc6240ba394e4bdb8ad8db54b949c8",
    "precision":
        "959f66d47b0bda295cb82650eed45cd82a7aea3aae4987edef4cf9aac829911f",
    "sketchlearn":
        "26183b0e9e3dbb9864ce02c0dc8d27c731baaadf59bc7c29b3ac07191e70367f",
}


@pytest.fixture(scope="module")
def programs():
    compiled = {name: build(t6()) for name, build in APPS.items()}
    compiled["netcache-unrouted"] = compile_linked(
        netcache_linked(with_routing=False), t6())
    return compiled


def columns_of(name: str) -> dict:
    return batch_columns("netcache" if name.startswith("netcache")
                         else name)


def bank_set(compiled, k: int) -> list[Pipeline]:
    banks = RegisterBanks(k)
    return [Pipeline(compiled, engine="vector", banks=banks, bank=bank)
            for bank in range(k)]


@pytest.mark.parametrize("app", sorted(ONE_BANK_SOURCES))
def test_one_bank_source_is_unchanged(programs, app):
    source = Pipeline(programs[app], engine="vector").vplan.source
    assert "bank" not in source
    digest = hashlib.sha256(source.encode()).hexdigest()
    assert digest == ONE_BANK_SOURCES[app]


@pytest.mark.parametrize("app, k, sort", [
    ("cms", 2, "None"),            # 2 x 8 192 cells: one flat uint16 sort
    ("cms", 9, "_i64"),            # past the radix limit: per-row, int64
    ("netcache-unrouted", 4, "None"),
    ("precision", 3, None),
    ("sketchlearn", 2, None),
    ("conquest", 5, None),
])
def test_one_batch_equals_each_bank_alone(programs, app, k, sort):
    """Random lane-to-bank assignments over three batches: every bank's
    registers, results and packet count equal its own pipeline's fed its
    own lanes in order."""
    compiled = programs[app]
    banked = bank_set(compiled, k)
    alone = [Pipeline(compiled, engine="vector") for _ in range(k)]
    source = banked[0].vplan.source
    assert "bank = batch.bank" in source
    if sort is not None:
        assert "_family_add_read(" in source
        assert f", {sort}, " in source.split("_family_add_read(")[1]
    rng = np.random.default_rng(k)
    columns = columns_of(app)
    n = len(next(iter(columns.values())))
    for _ in range(3):
        bank = rng.integers(0, k, n)
        results = banked[rng.integers(0, k)].process_columns(columns,
                                                             bank=bank)
        for index, pipe in enumerate(alone):
            lanes = bank == index
            mine = pipe.process_columns(
                {field: values[lanes] for field, values in columns.items()})
            for key in ("meta.cms_min", "meta.kv_hit"):
                if key in pipe.phv_layout:
                    np.testing.assert_array_equal(
                        results.column(key)[lanes], mine.column(key))
    for pipe, ours in zip(alone, banked):
        theirs = pipe.registers.export_state()
        state = ours.registers.export_state()
        assert theirs.keys() == state.keys()
        for name in theirs:
            np.testing.assert_array_equal(state[name], theirs[name])
        assert ours.packets_processed == pipe.packets_processed


def test_a_bank_alone_runs_its_own_registers(programs):
    """Without a bank column a member's batch is all its own lanes, on
    the same banked plan."""
    compiled = programs["cms"]
    banked = bank_set(compiled, 3)
    alone = Pipeline(compiled, engine="vector")
    columns = columns_of("cms")
    banked[1].process_columns(columns)
    alone.process_columns(columns)
    for row in range(compiled.symbol_values["cms_rows"]):
        np.testing.assert_array_equal(
            banked[1].register_dump("cms_sketch", row),
            alone.register_dump("cms_sketch", row))
        assert not banked[0].register_dump("cms_sketch", row).any()
        assert not banked[2].register_dump("cms_sketch", row).any()


def test_a_table_is_never_banked(programs):
    with pytest.raises(ValueError, match="table apply in a banked plan"):
        bank_set(programs["netcache"], 2)


def test_reports_name_the_bank_count(programs):
    one = Pipeline(programs["cms"], engine="vector")
    three = bank_set(programs["cms"], 3)[0]
    assert one.vplan.describe().splitlines()[0].endswith("1 register bank")
    assert three.vplan.describe().splitlines()[0].endswith("3 register banks")
    assert {row["banks"] for row in one.tier_report()} == {1}
    assert {row["banks"] for row in three.tier_report()} == {3}


def test_bank_lanes_are_checked(programs):
    banked = bank_set(programs["cms"], 2)
    columns = {"flow_id": np.arange(4)}
    with pytest.raises(ValueError, match="bank must be 4 indexes below 2"):
        banked[0].process_columns(columns, bank=[0, 1, 2, 0])
    with pytest.raises(ValueError, match="bank must be"):
        banked[0].process_columns(columns, bank=[0, 1])
    scalar = Pipeline(programs["cms"], engine="compiled")
    with pytest.raises(ValueError, match="need a vector plan"):
        scalar.process_columns(columns, bank=[0] * 4)


def test_banks_share_one_geometry(programs):
    banks = RegisterBanks(2)
    Pipeline(programs["cms"], engine="vector", banks=banks, bank=0)
    with pytest.raises(RegisterError, match="already has a pipeline"):
        Pipeline(programs["cms"], engine="vector", banks=banks, bank=0)
    with pytest.raises(RegisterError, match="outside a 2-bank set"):
        Pipeline(programs["cms"], engine="vector", banks=banks, bank=2)
    with pytest.raises(RegisterError, match="do not share one layout"):
        banks.block("cms_sketch", 7)
