"""CLI and experiment drivers (smoke-scale)."""

import pytest

import inspect

from repro.bench.experiments import (
    EXPERIMENTS,
    run_e4,
    run_e12,
    run_experiment,
    scale_kwargs,
)
from repro.cli import build_parser, main
from repro.errors import ConfigError


class TestExperimentRegistry:
    def test_all_experiments_registered(self):
        assert {f"E{i}" for i in range(1, 17)} == set(EXPERIMENTS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment("E99")

    def test_dispatch_case_insensitive(self):
        headers, rows = run_experiment("e12", n=150, batch_sizes=(1, 5), k=3)
        assert headers[0] == "batch"
        assert len(rows) == 2


class TestScaleRule:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("E1", {"n": 800}),
            ("e3", {"sizes": [200, 400, 800]}),
            ("E11", {"n_objects": 800}),
        ],
    )
    def test_scale_sizes_each_driver(self, name, expected):
        assert scale_kwargs(name, 800) == expected

    def test_every_driver_accepts_its_scale_keyword(self):
        for name, (fn, _) in EXPERIMENTS.items():
            (keyword,) = scale_kwargs(name, 100)
            assert keyword in inspect.signature(fn).parameters, name


class TestExperimentDrivers:
    def test_e4_pruning_power_smoke(self):
        headers, rows = run_e4(n=150, num_queries=2, k=3)
        assert headers[0] == "method"
        assert len(rows) == 5
        for row in rows:
            assert row[1].endswith("%")

    def test_e12_batching_saves_io(self):
        _, rows = run_e12(n=200, batch_sizes=(1, 20), k=3)
        cold_single = float(rows[0][1])
        shared_batch = float(rows[1][2])
        assert shared_batch < cold_single


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "E1", "--scale", "100"])
        assert args.experiment == "E1"
        assert args.scale == 100

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E12" in out

    def test_demo_command(self, capsys):
        assert main(["demo", "--n", "100", "--k", "2", "--queries", "1"]) == 0
        out = capsys.readouterr().out
        assert "dataset:" in out
        assert "query 0:" in out

    def test_run_command(self, capsys):
        assert main(["run", "E12", "--scale", "150"]) == 0
        out = capsys.readouterr().out
        assert "E12" in out
        assert "batch" in out

    def test_engine_flag_parsed(self):
        parser = build_parser()
        for command in ("demo", "batch"):
            args = parser.parse_args([command, "--engine", "snapshot"])
            assert args.engine == "snapshot"
            assert parser.parse_args([command]).engine is None

    def test_engine_flag_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--engine", "warp"])

    def test_demo_command_with_engine(self, capsys):
        for engine in ("seed", "snapshot"):
            assert (
                main(
                    ["demo", "--n", "100", "--k", "2", "--queries", "1",
                     "--engine", engine]
                )
                == 0
            )
            assert "query 0:" in capsys.readouterr().out

    def test_batch_command_with_engine(self, capsys):
        assert (
            main(
                ["batch", "--n", "120", "--k", "2", "--queries", "3",
                 "--engine", "snapshot"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "throughput (q/s)" in out
