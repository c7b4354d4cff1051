"""Tests for the shared benchmark machinery (scope control, one cell,
its helpers and the verdict file)."""

import json

import pytest

from benchmarks.common import (
    ALPHA,
    FIG3_SYSTEMS,
    FULL_RATIOS,
    QUICK_RATIOS,
    RATIO_LABELS,
    ErrorSampler,
    SystemSpec,
    bench_scope,
    dataset_names,
    dataset_workload,
    final_graph,
    ratio_sweep,
    record_verdict,
    run_system,
    scoped,
    seed_mean,
    tranche_means,
    window_for,
)
from repro.core.rates import RateDriftDetector
from repro.evaluation.datasets import get_dataset
from repro.evaluation.metrics import AccuracySummary
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.replay import CompletedRequest, SimulationResult
from repro.queueing.workload import Request


class TestScopeControl:
    def test_default_scope_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCOPE", raising=False)
        assert bench_scope() == "quick"
        assert scoped("a", "b") == "a"
        assert ratio_sweep() == QUICK_RATIOS

    def test_full_scope(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCOPE", "full")
        assert bench_scope() == "full"
        assert scoped("a", "b") == "b"
        assert ratio_sweep() == FULL_RATIOS
        assert len(dataset_names()) == 6

    def test_invalid_scope_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCOPE", "enormous")
        with pytest.raises(ValueError):
            bench_scope()

    def test_ratio_labels_cover_full_sweep(self):
        assert all(r in RATIO_LABELS for r in FULL_RATIOS)

    def test_window_capped_in_quick_scope(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCOPE", raising=False)
        spec = get_dataset("pokec")
        assert window_for(spec) <= 4.0


class TestFig3Systems:
    def test_paper_competitor_set(self):
        labels = [s.label for s in FIG3_SYSTEMS]
        assert labels == [
            "Quota", "Quota*", "Agenda", "FORA", "FORA+", "FORA*", "ResAcc"
        ]

    def test_seed_variants_flagged(self):
        by_label = {s.label: s for s in FIG3_SYSTEMS}
        assert by_label["Quota*"].epsilon_r > 0
        assert by_label["FORA*"].epsilon_r > 0
        assert by_label["Agenda"].epsilon_r == 0


class TestCellSetup:
    def test_dataset_workload_shapes(self):
        spec, graph, workload, lq, lu = dataset_workload(
            "webs", ratio=0.5, seed=1, window=1.0
        )
        assert spec.name == "webs"
        assert lu == pytest.approx(lq * 0.5)
        assert workload.t_end == 1.0
        assert graph.num_nodes == spec.nodes

    def test_run_system_baseline(self):
        spec, graph, workload, lq, lu = dataset_workload(
            "webs", ratio=1.0, seed=2, lambda_q=10.0, window=0.5
        )
        cell = run_system(
            SystemSpec("FORA", "FORA"), spec, graph, workload, lq, lu
        )
        assert len(cell.result) == len(workload)

    def test_run_system_does_not_mutate_shared_graph(self):
        spec, graph, workload, lq, lu = dataset_workload(
            "webs", ratio=1.0, seed=3, lambda_q=10.0, window=0.5
        )
        edges_before = set(graph.edges())
        run_system(SystemSpec("FORA", "FORA"), spec, graph, workload, lq, lu)
        assert set(graph.edges()) == edges_before


def small_cell():
    return dataset_workload("webs", ratio=1.0, seed=4, lambda_q=20.0, window=1.0)


class TestOneCell:
    def test_no_controller_makes_no_decision(self):
        spec, graph, workload, lq, lu = small_cell()
        cell = run_system(SystemSpec("Agenda", "Agenda"), spec, graph, workload)
        assert cell.system.controller is None
        assert cell.system.decisions == []

    def test_periodic_quota_cell_resolves_online(self):
        spec, graph, workload, lq, lu = small_cell()
        cell = run_system(
            SystemSpec("Quota", "FORA", use_quota=True), spec, graph,
            workload, drift=RateDriftDetector.periodic(0.25),
        )
        assert len(cell.system.decisions) > 0

    def test_static_quota_cell_solves_once_at_the_given_rates(self):
        spec, graph, workload, lq, lu = small_cell()
        cell = run_system(
            SystemSpec("Quota", "FORA", use_quota=True), spec, graph,
            workload, lq, lu,
        )
        (decision,) = cell.system.decisions
        assert cell.system.algorithm.get_hyperparameters() == decision.beta

    def test_fixed_beta_cell_runs_at_that_beta(self):
        spec, graph, workload, lq, lu = small_cell()
        beta = {"r_max": 0.0123}
        cell = run_system(
            SystemSpec("FORA", "FORA"), spec, graph, workload, beta=beta
        )
        assert cell.system.algorithm.get_hyperparameters() == beta
        assert cell.response_ms == pytest.approx(
            cell.result.mean_query_response_time() * 1e3
        )


class TestErrorSampler:
    def test_samples_every_nth_answer_against_the_final_graph(self):
        spec, graph, workload, lq, lu = small_cell()
        truth = final_graph(graph, workload)
        assert any(r.kind == UPDATE for r in workload)
        sampler = ErrorSampler(truth, every=3)
        seen = []

        def callback(request, estimate, pending):
            seen.append(estimate)
            sampler(request, estimate, pending)

        run_system(
            SystemSpec("FORA", "FORA"), spec, graph, workload,
            query_callback=callback,
        )
        expected = [
            AccuracySummary.compare(e, truth, ALPHA).max_absolute_error
            for e in seen[2::3]
        ]
        assert sampler.errors == pytest.approx(expected)
        assert sampler.mean() == pytest.approx(sum(expected) / len(expected))

    def test_final_graph_applies_every_update_to_a_copy(self):
        spec, graph, workload, lq, lu = small_cell()
        edges = set(graph.edges())
        truth = final_graph(graph, workload)
        replayed = graph.copy()
        for request in workload:
            if request.kind == UPDATE:
                request.update.apply(replayed)
        assert set(truth.edges()) == set(replayed.edges())
        assert set(graph.edges()) == edges


def completed(arrival, response):
    return CompletedRequest(
        request=Request(arrival, QUERY, source=0),
        start=arrival,
        finish=arrival + response,
        service=response,
    )


class TestSweepHelpers:
    def test_tranche_means_puts_an_arrival_at_t_end_in_the_last(self):
        result = SimulationResult(
            [completed(0.5, 0.002), completed(1.5, 0.004),
             completed(2.0, 0.008)],
            t_end=2.0,
        )
        assert tranche_means(result, 2.0, 1.0) == pytest.approx([2.0, 6.0])

    def test_tranche_means_reads_zero_for_an_empty_tranche(self):
        result = SimulationResult([completed(0.1, 0.001)], t_end=3.0)
        assert tranche_means(result, 3.0, 1.0) == pytest.approx([1.0, 0, 0])

    def test_seed_mean_averages_each_label(self):
        means = seed_mean((1, 2, 3), lambda s: {"a": s, "b": 2.0 * s})
        assert means == {"a": 2.0, "b": 4.0}


class TestVerdictFile:
    def test_one_entry_per_bench_others_kept(self, tmp_path):
        path = tmp_path / "shapes.json"
        record_verdict("fig3", {"wins": 2}, path)
        record_verdict("fig5", {"mean": -1.5}, path)
        record_verdict("fig3", {"wins": 3}, path)
        entries = json.loads(path.read_text())["entries"]
        assert set(entries) == {"fig3", "fig5"}
        assert entries["fig3"]["results"] == {"wins": 3}
        assert entries["fig5"]["results"] == {"mean": -1.5}
        assert {"scope", "seed", "host"} <= set(entries["fig3"])
