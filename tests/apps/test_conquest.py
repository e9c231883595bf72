"""ConQuest application tests."""

import pytest

from repro.apps import conquest_source
from repro.lang import check_program, parse_program

from tests.apps.reference import ConQuestApp


class TestSource:
    def test_parses_and_checks(self):
        info = check_program(parse_program(conquest_source()))
        assert "cq_cols" in info.symbolics
        assert info.consts["cq_snaps"] == 4


class TestCompiledApp:
    @pytest.fixture(scope="class")
    def app(self, mini_tofino):
        return ConQuestApp(mini_tofino)

    def test_estimate_grows_within_recent_windows(self, app):
        flow = 7
        # Window 0: flow sends 10 packets — estimate reads *other*
        # windows, so it stays 0 during the first window.
        for _ in range(10):
            est = app.process(flow, window=0)
        assert est == 0
        # Window 1: the flow's window-0 traffic is now part of the
        # estimate.
        est = app.process(flow, window=1)
        assert est == 10

    def test_rotation_cleans_old_snapshot(self, app):
        flow = 9
        base = app._last_window or 0
        for w in range(base + 1, base + 1 + app.snapshots):
            app.process(flow, window=w)
        # After a full rotation the snapshot for the original window has
        # been cleaned: the estimate only covers the last C-1 windows.
        est = app.process(flow, window=base + 1 + app.snapshots)
        assert est <= app.snapshots - 1

    def test_byte_amounts_accumulate(self, mini_tofino):
        app = ConQuestApp(mini_tofino)
        app.process(3, window=0, amount=500)
        app.process(3, window=0, amount=250)
        est = app.process(3, window=1, amount=1)
        assert est == 750
