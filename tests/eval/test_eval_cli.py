"""Tests for the ``python -m repro.eval`` experiment runner."""

import pytest

from repro.eval.__main__ import EXPERIMENTS, main


class TestEvalCli:
    def test_single_experiment_prints(self, capsys):
        assert main(["fig09"]) == 0
        out, _ = capsys.readouterr()
        assert "Figure 9" in out
        assert "bound for 'cms_rows': 2" in out

    def test_output_directory(self, tmp_path, capsys):
        assert main(["fig09", "--out", str(tmp_path)]) == 0
        written = tmp_path / "fig09.txt"
        assert written.exists()
        assert "bound" in written.read_text()

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["fig99"]) == 2
        _, err = capsys.readouterr()
        assert "unknown experiments" in err

    def test_registry_covers_all_figures(self):
        assert {"fig01", "fig04", "fig07", "fig09", "fig11", "fig12",
                "fig13", "runtime", "fleet", "ablations"} == set(EXPERIMENTS)

    @pytest.mark.parametrize("flag", ["--engine", "--workers"])
    def test_no_flag_writes_the_environment(self, flag, capsys):
        # The harness runs on the default engine; sharded serving is
        # gone.
        with pytest.raises(SystemExit) as exc:
            main(["fig09", flag, "vector"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
