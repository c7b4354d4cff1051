"""Fuzz harness: sweeps pass their own oracles, deterministically."""

import json

import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.obs.metrics import MetricsRegistry
from repro.scenarios.__main__ import main as scenarios_main
from repro.scenarios.dsl import FAMILIES, flash_crowd
from repro.scenarios.fuzz import (
    jittered_scenario,
    run_drift_demo,
    run_fuzz,
    run_measured,
)
import numpy as np


class TestRunFuzz:
    def test_modeled_sweep_is_clean(self):
        report = run_fuzz(
            2,
            families=["edge-replay", "update-storm", "paper-pattern"],
            nodes=100,
            measured=False,
            drift=False,
            metrics=MetricsRegistry(),
        )
        assert report.ok, [str(v) for v in report.violations]
        # two modeled engines per (seed, family) cell
        assert len(report.cards) == 2 * 3 * 2

    def test_sweep_is_deterministic(self):
        kwargs = dict(
            families=["flash-crowd"],
            nodes=100,
            measured=False,
            drift=False,
        )
        a = run_fuzz(2, metrics=MetricsRegistry(), **kwargs)
        b = run_fuzz(2, metrics=MetricsRegistry(), **kwargs)
        assert [c.to_dict() for c in a.cards] == [
            c.to_dict() for c in b.cards
        ]

    def test_metrics_counted(self):
        metrics = MetricsRegistry()
        run_fuzz(
            1,
            families=["cache-buster"],
            nodes=80,
            measured=False,
            drift=False,
            metrics=metrics,
        )
        assert metrics.counter("scenario.runs").value == 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="seeds"):
            run_fuzz(0, measured=False, drift=False)
        with pytest.raises(ValueError, match="unknown families"):
            run_fuzz(1, families=["nope"], measured=False, drift=False)

    def test_jitter_covers_every_family(self):
        rng = np.random.default_rng(0)
        for family in FAMILIES:
            scenario = jittered_scenario(family, rng)
            assert scenario.family == family


class TestMeasuredEngine:
    def test_measured_replay_is_clean(self):
        scenario = flash_crowd(t_end=6.0, lambda_q=8.0, spike_factor=10.0)
        graph = barabasi_albert_graph(120, attach=2, seed=21)
        workload = scenario.compile(graph, rng=1)
        card, violations = run_measured(scenario, workload, graph, seed=0)
        assert violations == [], [str(v) for v in violations]
        assert card.engine == "measured"
        assert card.requests > 0
        assert card.shed_rate == 0.0
        assert card.staleness_spent <= card.staleness_budget

    def test_drift_demo_reconfigures(self):
        metrics = MetricsRegistry()
        card, violations = run_drift_demo(metrics=metrics)
        assert violations == [], [str(v) for v in violations]
        assert card.reconfigurations >= 1
        assert (
            metrics.counter("scenario.reconfigurations").value
            == card.reconfigurations
        )


class TestCli:
    def test_list(self, capsys):
        assert scenarios_main(["list"]) == 0
        assert "flash-crowd" in capsys.readouterr().out

    def test_quick_fuzz_writes_report(self, tmp_path, capsys):
        out = tmp_path / "cards.json"
        code = scenarios_main(
            [
                "fuzz",
                "--seeds",
                "1",
                "--quick",
                "--families",
                "edge-replay,zipf-hotset",
                "--nodes",
                "90",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert len(payload["cards"]) == 4
        assert "all oracles passed" in capsys.readouterr().out

    def test_replay_spec(self, capsys):
        code = scenarios_main(
            [
                "replay",
                "--spec",
                "update-storm(storm_factor=12)",
                "--quick",
                "--nodes",
                "90",
            ]
        )
        assert code == 0
        assert "update-storm" in capsys.readouterr().out

    def test_bad_spec_is_usage_error(self, capsys):
        assert scenarios_main(["replay", "--spec", "nope", "--quick"]) == 2

    def test_top_level_cli_delegates(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["scenarios", "list"]) == 0
        assert "flash-crowd" in capsys.readouterr().out
