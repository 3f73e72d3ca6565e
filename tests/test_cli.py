"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure1_defaults(self):
        args = build_parser().parse_args(["figure1"])
        assert args.command == "figure1"
        assert args.points == 51
        assert args.output_dir is None

    def test_sweep_policy_choices(self):
        args = build_parser().parse_args(["sweep", "--policy", "exclusive", "sharing"])
        assert args.policy == ["exclusive", "sharing"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--policy", "nonsense"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert (args.host, args.port) == ("127.0.0.1", 8080)
        assert args.max_batch == 64
        assert args.max_wait_ms == 2.0
        assert args.cache_size == 4096
        assert args.max_pending == 1024
        assert args.executor is None and args.workers is None
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-batch", "8", "--max-wait-ms", "0.5",
             "--max-pending", "16", "--executor", "thread", "--workers", "2"]
        )
        assert (args.port, args.max_batch, args.max_wait_ms) == (0, 8, 0.5)
        assert (args.max_pending, args.executor, args.workers) == (16, "thread", 2)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--executor", "nonsense"])

    def test_serve_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        assert "--max-batch" in capsys.readouterr().out

    def test_dynamics_defaults_and_choices(self):
        args = build_parser().parse_args(["dynamics"])
        assert args.rule == "discrete"
        assert args.grid == "quick"
        assert args.batch is None  # auto-tuned from the grid and CPU count
        args = build_parser().parse_args(
            ["dynamics", "--rule", "logit", "--grid", "full", "--batch", "16"]
        )
        assert (args.rule, args.grid, args.batch) == ("logit", "full", 16)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dynamics", "--rule", "rk4"])

    def test_sweep_fabric_flags_on_every_experiment_subcommand(self):
        # --executor/--store/--resume ride the shared parent parser, so every
        # experiment sub-command accepts them.
        for command in ("figure1", "observation1", "spoa", "ess", "sweep",
                        "dynamics", "travel-costs", "group-competition",
                        "repeated", "search", "coverage-times", "mechanism",
                        "experiments"):
            args = build_parser().parse_args(
                [command, "--executor", "serial", "--store", "cells", "--resume"]
            )
            assert args.executor == "serial"
            assert str(args.store) == "cells"
            assert args.resume is True
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dynamics", "--executor", "carrier-pigeon"])

    def test_experiment_help_documents_the_fabric_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dynamics", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--executor", "--store", "--resume", "--bind"):
            assert flag in out
        assert "distributed" in out

    def test_coverage_times_defaults_and_choices(self):
        args = build_parser().parse_args(["coverage-times"])
        assert args.command == "coverage-times"
        assert args.trials == 400
        assert args.max_rounds == 4000
        assert args.horizon == 64
        assert args.batch is None
        args = build_parser().parse_args(
            ["coverage-times", "--strategies", "uniform", "sigma_star", "--horizon", "16"]
        )
        assert args.strategies == ["uniform", "sigma_star"]
        assert args.horizon == 16
        with pytest.raises(SystemExit):
            build_parser().parse_args(["coverage-times", "--strategies", "nonsense"])

    def test_worker_subcommand_help_and_parsing(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--connect" in out and "coordinator" in out.lower()
        args = build_parser().parse_args(["worker", "--connect", "127.0.0.1:9999"])
        assert args.connect == "127.0.0.1:9999"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])  # --connect is required


class TestCommands:
    def test_figure1_command(self, capsys, tmp_path):
        exit_code = main(
            ["figure1", "--points", "5", "--output-dir", str(tmp_path), "--no-plot"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "peak at c" in captured.out
        assert "CSV written" in captured.out
        assert list(tmp_path.glob("figure1_*.csv"))

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_figure1_refuses_non_positive_points(self, points, tmp_path):
        with pytest.raises(ValueError, match="points must be >= 1"):
            main(["figure1", "--points", points, "--output-dir", str(tmp_path), "--no-plot"])

    def test_observation1_command(self, capsys):
        assert main(["observation1"]) == 0
        assert "1 - 1/e" in capsys.readouterr().out

    def test_spoa_command_quick(self, capsys):
        assert main(["spoa", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "exclusive" in out
        assert "Theorem 6" in out

    def test_ess_command(self, capsys):
        assert main(["ess", "--mutants", "3"]) == 0
        assert "ESS" in capsys.readouterr().out

    def test_sweep_command(self, capsys):
        assert main(["sweep", "--m", "8", "--policy", "exclusive", "sharing"]) == 0
        out = capsys.readouterr().out
        assert "exclusive" in out and "sharing" in out

    def test_dynamics_command(self, capsys):
        assert main(["dynamics", "--grid", "quick", "--batch", "8", "--max-iter", "3000"]) == 0
        out = capsys.readouterr().out
        assert "trajectories converged" in out
        assert "exploitability" in out

    def test_coverage_times_command(self, capsys):
        assert main(
            ["coverage-times", "--trials", "60", "--max-rounds", "500",
             "--strategies", "uniform", "proportional"]
        ) == 0
        out = capsys.readouterr().out
        assert "exact vs Monte-Carlo agreement" in out
        assert "uncoverable" in out
        assert "expected_rounds" in out

    def test_observation1_store_round_trip(self, capsys, tmp_path):
        # A cold run populates the store; the warm re-run answers every cell
        # from it and serialises to the same artifact bit for bit.
        store = tmp_path / "cells"
        assert main(["observation1", "--json", "--store", str(store)]) == 0
        cold = capsys.readouterr().out
        assert main(["observation1", "--json", "--store", str(store)]) == 0
        warm = capsys.readouterr().out
        assert cold == warm
        assert (store / "FORMAT").is_file()

    def test_bind_without_distributed_executor_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["observation1", "--bind", "127.0.0.1:0"])

    def test_dynamics_command_json_worker_invariant(self, capsys):
        # Fanning the row chunks out over worker processes must not change
        # the structured result.  (Changing --batch legitimately reshuffles
        # per-task seeds for the rng-backed cells, so only the worker count
        # is varied here.)
        assert main(["dynamics", "--grid", "quick", "--batch", "16", "--json"]) == 0
        serial = capsys.readouterr().out
        assert main(["dynamics", "--grid", "quick", "--batch", "16", "--json", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
