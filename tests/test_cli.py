"""CLI tests (driving main() in-process)."""

import pytest

from repro.cli import main
from repro.core import compile_source_greedy, stats_report
from repro.pisa.resources import get_target
from repro.structures import CMS_SOURCE


@pytest.fixture()
def cms_file(tmp_path):
    path = tmp_path / "cms.p4all"
    path.write_text(CMS_SOURCE)
    return path


class TestCompileCommand:
    def test_compile_to_stdout(self, cms_file, capsys):
        code = main([
            "compile", str(cms_file), "--target", "small",
        ])
        assert code == 0
        out, err = capsys.readouterr()
        assert "register<bit<32>>" in out
        assert "cms_rows=" in err

    def test_compile_to_file_with_report(self, cms_file, tmp_path, capsys):
        out_path = tmp_path / "out.p4"
        code = main([
            "compile", str(cms_file), "--target", "small",
            "-o", str(out_path), "--report",
        ])
        assert code == 0
        assert out_path.exists()
        _out, err = capsys.readouterr()
        assert "stage 0" in err

    def test_stats_say_how_the_search_went(self, cms_file, tmp_path, capsys):
        import re

        assert main(["compile", str(cms_file), "--target", "small",
                     "--stats"]) == 0
        _out, err = capsys.readouterr()
        # CMS's LP-rounded start is within 1e-4 of the LP bound: no
        # search, no nodes, and the gap is to the LP bound.
        assert re.search(
            r"ILP search: 0 nodes in \d+\.\d+ s \(lp-certified\), "
            r"gap \d+\.\d+% to bound \S+", err)
        # NetCache's at 32 Kb per stage is not, even on the utility's
        # lattice, and seeds the search.
        from repro.apps import netcache_source

        netcache = tmp_path / "netcache.p4all"
        netcache.write_text(netcache_source(with_routing=False))
        assert main(["compile", str(netcache), "--target", "tofino",
                     "--stages", "6", "--memory", "32768", "--stats",
                     "-o", str(tmp_path / "netcache.p4")]) == 0
        assert re.search(
            r"ILP search: \d+ nodes in \d+\.\d+ s \(seeded\), "
            r"gap \d+\.\d+% to bound \S+", capsys.readouterr().err)
        # Greedy searches nothing, so it has nothing to say.
        greedy = compile_source_greedy(CMS_SOURCE, get_target("small"))
        assert "ILP search" not in stats_report(greedy)

    def test_target_overrides(self, cms_file, capsys):
        code = main([
            "compile", str(cms_file), "--target", "toy3", "--stages", "5",
        ])
        assert code == 0

    def test_error_reported_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.p4all"
        bad.write_text("symbolic int ;")
        code = main(["compile", str(bad), "--target", "small"])
        assert code == 1
        _out, err = capsys.readouterr()
        assert "error" in err


class TestVerifyCommand:
    @pytest.fixture()
    def leaky_pair(self, tmp_path):
        from tests.property.generators import (
            leaky_reader_source,
            writer_module_source,
        )

        wr = tmp_path / "wr.p4all"
        wr.write_text(writer_module_source("wr"))
        rd = tmp_path / "rd.p4all"
        rd.write_text(leaky_reader_source("rd", "wr"))
        return wr, rd

    def test_verify_netcache_clean(self, capsys):
        code = main(["verify", "--netcache"])
        assert code == 0
        out, _err = capsys.readouterr()
        assert "kv" in out and "cms" in out
        assert "isolation verified" in out

    def test_verify_flags_leak_with_witness(self, leaky_pair, capsys):
        wr, rd = leaky_pair
        code = main([
            "verify", str(wr), str(rd), "--stages", "6",
            "--memory", "65536",
        ])
        assert code == 1
        out, _err = capsys.readouterr()
        assert "wr -> rd" in out
        assert "witness" in out and "wr_reg" in out

    def test_verify_allow_flag_reports_but_passes(self, leaky_pair, capsys):
        wr, rd = leaky_pair
        code = main([
            "verify", str(wr), str(rd), "--stages", "6",
            "--memory", "65536", "--allow-cross-module-state",
        ])
        assert code == 0
        out, err = capsys.readouterr()
        assert "cross-module flows" in out
        assert "allowed" in err

    def test_verify_without_input_is_usage_error(self, capsys):
        assert main(["verify"]) == 2


class TestOtherCommands:
    def test_bounds(self, cms_file, capsys):
        assert main(["bounds", str(cms_file), "--target", "toy3"]) == 0
        out, _ = capsys.readouterr()
        assert "cms_rows: bound 2" in out

    def test_targets(self, capsys):
        assert main(["targets"]) == 0
        out, _ = capsys.readouterr()
        assert "tofino" in out and "toy3" in out

    def test_library_list_and_dump(self, capsys):
        assert main(["library"]) == 0
        out, _ = capsys.readouterr()
        assert "cms" in out and "bloom" in out
        assert main(["library", "cms"]) == 0
        out, _ = capsys.readouterr()
        assert "symbolic int cms_rows;" in out

    def test_library_unknown(self, capsys):
        assert main(["library", "nope"]) == 2


class TestSolverFlags:
    def test_backend_choices_rejected(self, cms_file, capsys):
        # One solver: no subcommand has a backend to choose, nor ``run``
        # a retry count.
        program = [str(cms_file)]
        for argv in (
            *([sub, *program, "--backend", backend]
              for sub in ("compile", "verify", "bounds", "graph")
              for backend in ("auto", "scipy", "bb", "greedy")),
            *([sub, "--backend", "greedy"] for sub in ("run", "fabric")),
            ["run", "--max-retries", "1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_tiny_time_limit_reports_structured_error(self, cms_file, capsys):
        code = main([
            "compile", str(cms_file), "--target", "small",
            "--time-limit", "0.00001",
        ])
        assert code == 1
        _out, err = capsys.readouterr()
        assert "time limit" in err

    def test_every_compiling_subcommand_accepts_solver_flags(self, cms_file):
        from repro.cli import build_parser

        parser = build_parser()
        for sub in ("compile", "verify"):
            args = parser.parse_args([sub, str(cms_file), "--time-limit", "2"])
            assert args.time_limit == 2.0
        for sub in ("run", "fabric"):
            assert parser.parse_args([sub, "--time-limit", "2"]).time_limit == 2.0

    def test_subcommands_that_solve_nothing_reject_a_time_limit(
            self, cms_file, capsys):
        # ``bounds`` and ``graph`` stop at the unroll bounds: no layout
        # is solved, so a solver limit would be parsed and ignored.
        for sub in ("bounds", "graph"):
            with pytest.raises(SystemExit) as exc:
                main([sub, str(cms_file), "--time-limit", "1"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --time-limit" in \
                capsys.readouterr().err


class TestRunCommand:
    def test_run_no_cut_smoke(self, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        code = main([
            "run", "--stages", "6", "--memory", "65536",
            "--packets", "3000", "--window", "300", "--seed", "7",
            "--no-cut", "--json", str(json_path),
        ])
        assert code == 0
        out, _err = capsys.readouterr()
        assert "processed 3000 packets" in out
        assert "final layout" in out

        import json

        report = json.loads(json_path.read_text())
        assert report["packets"] == 3000
        assert report["reconfigs"] == []
        assert len(report["timeline"]) == 10

    def test_run_events_jsonl(self, capsys, tmp_path):
        import json

        events_path = tmp_path / "events.jsonl"
        code = main([
            "run", "--stages", "6", "--memory", "65536",
            "--packets", "1000", "--window", "500", "--no-cut",
            "--events", str(events_path),
        ])
        assert code == 0
        kinds = [json.loads(line)["kind"]
                 for line in events_path.read_text().strip().splitlines()]
        assert "configured" in kinds
        assert kinds.count("window") == 2

    @pytest.mark.parametrize("argv", [
        ["run", "--shard-mode", "pool"],
        ["fabric", "--shard-mode", "pool"],
        ["fabric", "--parallel"],
        ["run", "--workers", "2"],
        ["fabric", "--workers", "2"],
        ["run", "--race"],
    ])
    def test_removed_mode_flags_are_rejected(self, argv, capsys):
        # One way to shard, one way to run a fleet, one exact serve, one
        # planning path: nothing to select.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "fabric"])
    def test_negative_sub_batch_is_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--serve-batch", "-1"])
        assert exc.value.code == 2
        assert "--serve-batch" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "fabric"])
    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_non_positive_window_is_rejected(self, command, window, capsys):
        # Parser only: a window below one packet would never advance the
        # run loop, so nothing past argument parsing may run here.
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--window", window])
        assert exc.value.code == 2
        assert "--window" in capsys.readouterr().err

    def test_sub_batch_size_changes_no_result(self, capsys):
        import re

        reports = []
        for extra in ([], ["--serve-batch", "0"], ["--serve-batch", "333"]):
            assert main(["run", "--stages", "6", "--memory", "65536",
                         "--packets", "4000", "--window", "400",
                         "--seed", "7", *extra]) == 0
            out, _err = capsys.readouterr()
            reports.append(re.sub(r"in [0-9.]+s", "in Xs", out))
        assert "reconfig @pkt 2000" in reports[0] and "migrated" in reports[0]
        assert reports[0] == reports[1] == reports[2]
