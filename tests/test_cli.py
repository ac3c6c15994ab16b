"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.hypergraph.generators import planted_hierarchy_hypergraph
from repro.hypergraph.io import read_hgr, write_hgr


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "out.hgr"])
        assert args.kind == "planted"
        assert args.nodes == 256


class TestGenerate:
    def test_writes_hgr(self, tmp_path, capsys):
        path = tmp_path / "out.hgr"
        code = main(["generate", str(path), "--nodes", "64", "--seed", "3"])
        assert code == 0
        netlist = read_hgr(path)
        assert netlist.num_nodes == 64
        assert "wrote 64 nodes" in capsys.readouterr().out

    def test_surrogate_kind(self, tmp_path, capsys):
        path = tmp_path / "c.hgr"
        code = main(
            ["generate", str(path), "--kind", "c1355", "--scale", "0.1"]
        )
        assert code == 0
        assert read_hgr(path).num_nodes == round(546 * 0.1)

    def test_random_kind(self, tmp_path):
        path = tmp_path / "r.hgr"
        assert main(["generate", str(path), "--kind", "random",
                     "--nodes", "40"]) == 0
        assert read_hgr(path).num_nodes == 40


class TestPartition:
    @pytest.fixture
    def netlist_file(self, tmp_path):
        netlist = planted_hierarchy_hypergraph(64, height=2, seed=0)
        path = tmp_path / "n.hgr"
        write_hgr(netlist, path)
        return str(path)

    @pytest.mark.parametrize("algorithm", ["flow", "gfm", "rfm"])
    def test_algorithms_run(self, netlist_file, capsys, algorithm):
        code = main(
            [
                "partition",
                netlist_file,
                "--algorithm",
                algorithm,
                "--height",
                "2",
                "--iterations",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cost" in out
        assert "WARNING" not in out

    def test_improve_flag(self, netlist_file, capsys):
        code = main(
            [
                "partition",
                netlist_file,
                "--algorithm",
                "rfm",
                "--height",
                "2",
                "--improve",
            ]
        )
        assert code == 0
        assert "after FM improvement" in capsys.readouterr().out


class TestLowerBound:
    def test_runs_on_small_input(self, tmp_path, capsys):
        netlist = planted_hierarchy_hypergraph(24, height=2, seed=1)
        path = tmp_path / "s.hgr"
        write_hgr(netlist, path)
        code = main(
            ["lowerbound", str(path), "--height", "2",
             "--max-iterations", "40"]
        )
        assert code == 0
        assert "LP lower bound" in capsys.readouterr().out


class TestTableCommand:
    def test_table1(self, capsys):
        code = main(["table", "1", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TABLE 1" in out
        assert "c7552" in out


class TestSearchCommand:
    def test_search_runs(self, tmp_path, capsys):
        netlist = planted_hierarchy_hypergraph(64, height=2, seed=0)
        path = tmp_path / "s.hgr"
        write_hgr(netlist, path)
        code = main(["search", str(path), "--heights", "1", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "best: height" in out

    def test_search_reads_bench_files(self, tmp_path, capsys):
        from repro.hypergraph.bench_format import write_bench

        netlist = planted_hierarchy_hypergraph(48, height=2, seed=1)
        path = tmp_path / "c.bench"
        write_bench(netlist, path)
        code = main(["search", str(path), "--heights", "1"])
        assert code == 0
        assert "height 1" in capsys.readouterr().out


class TestSeparatorCommand:
    def test_separator_runs(self, tmp_path, capsys):
        netlist = planted_hierarchy_hypergraph(64, height=2, seed=0)
        path = tmp_path / "s.hgr"
        write_hgr(netlist, path)
        code = main(["separator", str(path), "--rho", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pieces" in out
        assert "cut capacity" in out


class TestBadInputExitCodes:
    """argparse rejects malformed options with exit code 2 (satellite:
    fault-tolerance PR)."""

    @pytest.fixture
    def netlist_file(self, tmp_path):
        netlist = planted_hierarchy_hypergraph(48, height=2, seed=0)
        path = tmp_path / "bad.hgr"
        write_hgr(netlist, path)
        return str(path)

    def test_unknown_engine_exits_2(self, netlist_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["partition", netlist_file, "--engine", "warp-drive"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @staticmethod
    def _one_line_error(capsys, flag):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert flag in errors[0]

    def test_parallel_engine_is_gone(self, netlist_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["partition", netlist_file, "--engine", "parallel"])
        assert excinfo.value.code == 2
        self._one_line_error(capsys, "--engine")

    @pytest.mark.parametrize("workers", ["0", "-3", "two", "2"])
    def test_bad_workers_exits_2(self, netlist_file, capsys, workers):
        """The process pool is gone, so any ``--workers`` is refused."""
        with pytest.raises(SystemExit) as excinfo:
            main(["partition", netlist_file, "--workers", workers])
        assert excinfo.value.code == 2
        self._one_line_error(capsys, "--workers")

    @pytest.mark.parametrize("workers", ["0", "nope"])
    def test_search_bad_workers_exits_2(self, netlist_file, capsys, workers):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", netlist_file, "--workers", workers])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "plan",
        [
            "explode:task",
            "fail:everywhere",
            "fail:task@bogus=1",
            "fail:task@dispatch=x",
            "fail:task@p=2.0",
            ";;",
        ],
    )
    def test_bad_fault_plan_exits_2(self, netlist_file, capsys, plan):
        """Fault injection left with the process pool: any plan is refused."""
        with pytest.raises(SystemExit) as excinfo:
            main(["partition", netlist_file, "--fault-plan", plan])
        assert excinfo.value.code == 2
        assert "--fault-plan" in capsys.readouterr().err


class TestUnreadableInput:
    """``partition`` (and friends) must exit 2 on unreadable netlists."""

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.hgr"
        code = main(["partition", str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read netlist")
        assert "nowhere.hgr" in err
        assert err.count("\n") == 1  # a single line, not a traceback

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.hgr"
        bad.write_text("this is not a netlist\n")
        code = main(["partition", str(bad)])
        assert code == 2
        assert "cannot read netlist" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["lowerbound", "search", "separator"])
    def test_other_readers_exit_2(self, command, tmp_path, capsys):
        code = main([command, str(tmp_path / "missing.hgr")])
        assert code == 2
        assert "cannot read netlist" in capsys.readouterr().err


class TestGenerateEdgeCases:
    """`generate --kind rent` must reject degenerate requests cleanly."""

    def test_single_node_exits_2(self, tmp_path, capsys):
        code = main(
            ["generate", str(tmp_path / "r.hgr"), "--kind", "rent",
             "--nodes", "1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot generate netlist")
        assert "two nodes" in err
        assert err.count("\n") == 1  # one line, not a traceback

    def test_zero_nodes_exits_2(self, tmp_path, capsys):
        code = main(
            ["generate", str(tmp_path / "r.hgr"), "--kind", "rent",
             "--nodes", "0"]
        )
        assert code == 2
        assert "cannot generate netlist" in capsys.readouterr().err

    def test_leaf_size_one_exits_2(self, tmp_path, capsys):
        code = main(
            ["generate", str(tmp_path / "r.hgr"), "--kind", "rent",
             "--nodes", "64", "--leaf-size", "1"]
        )
        assert code == 2
        assert "leaf_size" in capsys.readouterr().err

    def test_leaf_size_needs_rent(self, tmp_path, capsys):
        code = main(
            ["generate", str(tmp_path / "r.hgr"), "--kind", "planted",
             "--leaf-size", "4"]
        )
        assert code == 2
        assert "--leaf-size only applies" in capsys.readouterr().err

    def test_leaf_size_honoured(self, tmp_path):
        path = tmp_path / "r.hgr"
        assert main(
            ["generate", str(path), "--kind", "rent", "--nodes", "64",
             "--leaf-size", "8"]
        ) == 0
        assert read_hgr(path).num_nodes == 64

    def test_two_node_rent_is_valid(self, tmp_path):
        """The smallest legal rent instance still writes a valid netlist."""
        path = tmp_path / "r.hgr"
        assert main(
            ["generate", str(path), "--kind", "rent", "--nodes", "2"]
        ) == 0
        netlist = read_hgr(path)
        assert netlist.num_nodes == 2
        assert netlist.num_nets >= 1

    def test_zero_net_netlist_round_trips(self, tmp_path):
        """Zero-net hypergraphs survive the .hgr round trip."""
        from repro.hypergraph import Hypergraph

        path = tmp_path / "z.hgr"
        write_hgr(Hypergraph(5, nets=[]), path)
        back = read_hgr(path)
        assert back.num_nodes == 5
        assert back.num_nets == 0


class TestExactCommand:
    @pytest.fixture
    def small_file(self, tmp_path):
        from repro.hypergraph import Hypergraph

        netlist = Hypergraph(8, nets=[(i, i + 1) for i in range(7)])
        path = tmp_path / "small.hgr"
        write_hgr(netlist, path)
        return str(path)

    def test_exact_solves_small_instance(self, small_file, capsys):
        code = main(["exact", small_file, "--height", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal cost" in out

    def test_exact_bnb_method(self, small_file, capsys):
        code = main(
            ["exact", small_file, "--height", "2", "--method", "bnb"]
        )
        assert code == 0
        assert "branch-bound" in capsys.readouterr().out

    def test_exact_dp_rejects_non_tree(self, tmp_path, capsys):
        from repro.hypergraph import Hypergraph

        netlist = Hypergraph(4, nets=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        path = tmp_path / "cyc.hgr"
        write_hgr(netlist, path)
        code = main(["exact", str(path), "--height", "2", "--method", "dp"])
        assert code == 2
        assert "tree" in capsys.readouterr().err

    def test_exact_ilp_without_pulp_exits_2(self, small_file, capsys):
        from repro.analysis.exact import HAS_PULP

        if HAS_PULP:
            pytest.skip("pulp installed; the gate does not trigger")
        code = main(
            ["exact", small_file, "--height", "2", "--method", "ilp"]
        )
        assert code == 2
        assert "pulp" in capsys.readouterr().err

    def test_exact_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["exact", str(tmp_path / "missing.hgr")])
        assert code == 2
        assert "cannot read netlist" in capsys.readouterr().err


class TestVerifyOptimal:
    @pytest.fixture
    def small_file(self, tmp_path):
        from repro.hypergraph import Hypergraph

        netlist = Hypergraph(8, nets=[(i, i + 1) for i in range(7)])
        path = tmp_path / "small.hgr"
        write_hgr(netlist, path)
        return str(path)

    def test_reports_gap(self, small_file, capsys):
        code = main(
            ["partition", small_file, "--height", "2", "--verify-optimal"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verify-optimal: optimum" in out
        assert "gap" in out

    def test_skips_on_large_instance(self, tmp_path, capsys):
        netlist = planted_hierarchy_hypergraph(128, height=2, seed=0)
        path = tmp_path / "big.hgr"
        write_hgr(netlist, path)
        code = main(
            ["partition", str(path), "--height", "2", "--verify-optimal"]
        )
        assert code == 0
        assert "verify-optimal: SKIP" in capsys.readouterr().out
