"""Tests for the command-line interface."""

import pytest

from repro.cli import RESPONSE_MODELS, build_parser, main
from repro.core.quota import QuotaController
from repro.ppr.names import ENGINE_CHOICES, ENGINES


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.dataset == "dblp"
        assert args.algorithm == "Agenda"
        assert not args.quota

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "PageRank9000"])

    def test_configure_requires_rates(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["configure"])

    def test_response_model_choices_are_the_controllers(self, capsys):
        """The parser spells the models out (it must not import the
        controller) and rejects a typo before anything is built."""
        assert RESPONSE_MODELS == QuotaController.RESPONSE_MODELS
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["configure", "--lambda-q", "1", "--lambda-u", "1",
                 "--response-model", "mm2"]
            )
        assert "heavy-traffic" in capsys.readouterr().err

    def test_engine_default_is_auto(self):
        """The vectorized kernels by default; static engines override."""
        assert build_parser().parse_args(["run"]).engine == "auto"

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--engine", "simd"])

    def test_batched_engine_is_a_parser_error(self, capsys):
        """The query-batching engine is gone: ``run`` names the three
        choices that remain, ``serve`` (always ``auto``) has no flag."""
        with pytest.raises(SystemExit) as run_exit:
            build_parser().parse_args(["run", "--engine", "batched"])
        assert run_exit.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'batched'" in err
        for choice in ("auto", "scalar", "frontier"):
            assert repr(choice) in err
        with pytest.raises(SystemExit) as serve_exit:
            build_parser().parse_args(["serve", "--engine", "batched"])
        assert serve_exit.value.code == 2


class TestEngineGuard:
    """Keep the CLI's engine choices and the kernel registry in sync,
    and the scalar oracle path importable — the vectorized kernels are
    only trustworthy while the reference they're tested against exists.
    """

    def test_cli_choices_match_kernel_registry(self):
        run_parser = None
        for action in build_parser()._subparsers._group_actions:
            run_parser = action.choices.get("run")
        assert run_parser is not None
        engine_action = next(
            a for a in run_parser._actions if a.dest == "engine"
        )
        assert tuple(engine_action.choices) == ENGINE_CHOICES
        assert ENGINE_CHOICES == ("auto",) + ENGINES

    def test_scalar_is_registered_first(self):
        """The oracle engine must exist and be the default."""
        assert ENGINES[0] == "scalar"

    def test_oracle_path_importable(self):
        from repro.ppr.forward_push import forward_push
        from repro.ppr.kernels import reference_frontier_push, resolve_engine

        assert callable(forward_push)
        assert callable(reference_frontier_push)
        assert resolve_engine("scalar") == "scalar"
        with pytest.raises(ValueError):
            resolve_engine("not-an-engine")


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("webs", "dblp", "pokec", "lj", "orkut", "twitter"):
            assert name in out

    def test_calibrate(self, capsys):
        code = main(
            ["calibrate", "--dataset", "webs", "--algorithm", "FORA",
             "--queries", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Forward Push" in out
        assert "Graph Update" in out

    def test_configure(self, capsys):
        code = main(
            ["configure", "--dataset", "webs", "--algorithm", "FORA",
             "--lambda-q", "10", "--lambda-u", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "regime:" in out
        assert "r_max" in out

    def test_run_baseline_only(self, capsys):
        code = main(
            ["run", "--dataset", "webs", "--algorithm", "FORA",
             "--lambda-q", "20", "--lambda-u", "10", "--window", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FORA (default)" in out
        assert "mean R (ms)" in out

    def test_run_with_quota_comparison(self, capsys):
        code = main(
            ["run", "--dataset", "webs", "--algorithm", "FORA", "--quota",
             "--lambda-q", "20", "--lambda-u", "10", "--window", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Quota-FORA" in out
        assert "response-time reduction" in out

    def test_unknown_dataset_exits_cleanly(self, capsys):
        code = main(["run", "--dataset", "friendster"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_quota_requires_lambda_u(self, capsys):
        """A dataset declares no update rate, so the drift baseline
        must be given — not guessed from lambda_q."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--dataset", "webs", "--quota"])
        assert excinfo.value.code == 2
        assert "--lambda-u" in capsys.readouterr().err

    def test_missing_trace_exits_cleanly(self, capsys):
        code = main(
            ["run", "--dataset", "webs", "--trace", "/no/such/file.csv"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_run_save_and_replay_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(
            ["run", "--dataset", "webs", "--algorithm", "FORA",
             "--lambda-q", "20", "--lambda-u", "10", "--window", "1",
             "--save-trace", str(trace)]
        ) == 0
        assert trace.exists()
        capsys.readouterr()
        assert main(
            ["run", "--dataset", "webs", "--algorithm", "FORA",
             "--trace", str(trace)]
        ) == 0
        out = capsys.readouterr().out
        assert "queries" in out
