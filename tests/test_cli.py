"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import asyncio

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
        for flag in ("--executor", "--store", "--resume"):
            assert flag in out
        assert "--bind" not in out and "distributed" not in out

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

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--port", "70000"),
            ("--port", "-1"),
            ("--max-batch", "0"),
            ("--max-wait-ms", "-1"),
            ("--max-wait-ms", "nan"),
            ("--max-pending", "0"),
            ("--cache-size", "-5"),
            ("--workers", "-3"),
        ],
    )
    def test_serve_refuses_out_of_range_flags(self, flag, value, capsys):
        # A usage error naming the flag, at parse time: no traceback after
        # the serving imports, and no server quietly started without a cache.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_serve_accepts_the_range_bounds(self):
        args = build_parser().parse_args(
            ["serve", "--port", "65535", "--max-batch", "1", "--max-wait-ms", "0",
             "--max-pending", "1", "--cache-size", "0", "--workers", "0"]
        )
        assert (args.port, args.max_batch, args.max_wait_ms) == (65535, 1, 0.0)
        assert (args.max_pending, args.cache_size, args.workers) == (1, 0, 0)

    def test_executor_choices_are_the_registered_strategies(self):
        from repro.experiments import executor_names

        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command, parser in sub.choices.items():
            for action in parser._actions:
                if action.dest == "executor" and command != "serve":
                    assert tuple(action.choices) == executor_names(), command

    @pytest.mark.parametrize(
        "argv",
        [["worker", "--connect", "127.0.0.1:9999"], ["observation1", "--bind", "127.0.0.1:0"]],
        ids=["worker", "bind"],
    )
    def test_retired_worker_entry_points_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert argv[0 if argv[0] == "worker" else 1] in capsys.readouterr().err


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


#: Every experiment sub-command at its smallest size (``serve`` needs a
#: client and has its own test below).
SMALLEST = {
    "figure1": ["--points", "3", "--no-plot"],
    "observation1": [],
    "spoa": ["--quick"],
    "ess": ["--mutants", "1"],
    "sweep": ["--m", "4", "--policy", "exclusive"],
    "dynamics": ["--max-iter", "50"],
    "travel-costs": ["--cost-scales", "0", "0.1"],
    "group-competition": ["--policies", "exclusive", "sharing"],
    "repeated": ["--rounds", "2"],
    "search": ["--trials", "20", "--max-rounds", "20"],
    "coverage-times": ["--trials", "20", "--max-rounds", "50"],
    "mechanism": ["--policies", "exclusive"],
    "experiments": [],
}


class TestEverySubcommandRunsOnce:
    def test_every_subcommand_is_listed(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(SMALLEST) | {"serve"}

    @pytest.mark.parametrize("command", sorted(SMALLEST))
    def test_subcommand(self, command, capsys):
        assert main([command, *SMALLEST[command]]) == 0
        assert capsys.readouterr().out.strip()

    def test_serve(self, capsys, monkeypatch):
        import repro.serving
        from repro.serving import start_server

        statuses = []

        async def serve_one_request(host, port, **options):
            # The real server on the CLI's options, for one /healthz round trip.
            running = await start_server(host, port, **options)
            bound = running.server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(host, bound)
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
            statuses.append(await reader.readline())
            writer.close()
            await writer.wait_closed()
            await running.close()

        monkeypatch.setattr(repro.serving, "serve_forever", serve_one_request)
        assert main(["serve", "--port", "0", "--cache-size", "0", "--executor", "thread",
                     "--workers", "1"]) == 0
        assert statuses == [b"HTTP/1.1 200 OK\r\n"]
        assert "serve: shut down" in capsys.readouterr().out
