"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURES, TABLES, build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_figure_command_defaults(self):
        args = build_parser().parse_args(["figure", "5"])
        assert args.number == 5
        assert args.backend == "blocked_memory"
        assert args.records == 2_000

    def test_figure_command_custom_options(self):
        args = build_parser().parse_args(
            ["figure", "7", "--left", "100", "--right", "1000", "--fractions", "0.1"]
        )
        assert args.left == 100
        assert args.fractions == [0.1]

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "3"])

    def test_table_command(self):
        args = build_parser().parse_args(["table", "1", "--partitions", "5"])
        assert args.number == 1
        assert args.partitions == 5

    def test_registry_covers_every_evaluation_figure(self):
        assert set(FIGURES) == {2, 5, 6, 7, 8, 9, 10, 11, 12}
        assert set(TABLES) == {1}


class TestExecution:
    def test_list_prints_inventory(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure 5" in out
        assert "table  1" in out

    def test_table1_runs(self, capsys):
        assert main(["table", "1", "--partitions", "4"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "savings" in out

    def test_figure2_runs(self, capsys):
        assert main(["figure", "2", "--grid", "5"]) == 0
        out = capsys.readouterr().out
        assert "lambda" in out

    def test_figure5_runs_small(self, capsys):
        code = main(
            ["figure", "5", "--records", "300", "--fractions", "0.1", "0.2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ExMS" in out and "LaS" in out

    def test_figure12_runs_small(self, capsys):
        code = main(
            [
                "figure",
                "12",
                "--records",
                "300",
                "--left",
                "100",
                "--right",
                "1000",
                "--fractions",
                "0.1",
            ]
        )
        assert code == 0
        assert "kendall_tau" in capsys.readouterr().out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "table1.txt"
        assert main(["table", "1", "--output", str(target)]) == 0
        assert "Table 1" in target.read_text()
        assert capsys.readouterr().out == ""


class TestQueryCommand:
    def test_query_parser_defaults(self):
        args = build_parser().parse_args(["query", "join"])
        assert args.name == "join"
        assert args.shards == 1
        assert args.fraction == 0.08

    def test_single_device_query_runs(self, capsys):
        assert main(["query", "sort", "--records", "300"]) == 0
        out = capsys.readouterr().out
        assert "physical plan" in out
        assert "output records" in out

    def test_sharded_query_runs(self, capsys):
        assert (
            main(
                [
                    "query",
                    "join",
                    "--shards",
                    "3",
                    "--left",
                    "150",
                    "--right",
                    "1500",
                    "--fraction",
                    "0.15",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sharded physical plan (shards=3" in out
        assert "critical path" in out
        assert "output records    : 1500" in out

    def test_sharded_aggregate_runs(self, capsys):
        assert main(["query", "aggregate", "--shards", "2", "--records", "400"]) == 0
        out = capsys.readouterr().out
        assert "sharded physical plan (shards=2" in out
        assert "exchange on hash(attr 1)" in out

    def test_sharded_materialize_rejected(self):
        with pytest.raises(SystemExit):
            main(["query", "join", "--shards", "2", "--materialize"])

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(SystemExit):
            main(["query", "join", "--shards", "0"])
