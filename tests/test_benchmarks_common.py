"""Tests for the shared benchmark machinery (scope control, cell setup)."""

import pytest

from benchmarks.common import (
    FIG3_SYSTEMS,
    FULL_RATIOS,
    QUICK_RATIOS,
    RATIO_LABELS,
    SystemSpec,
    bench_scope,
    dataset_names,
    dataset_workload,
    ratio_sweep,
    run_system,
    scoped,
    window_for,
)
from repro.evaluation.datasets import get_dataset


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
        result = run_system(
            SystemSpec("FORA", "FORA"), spec, graph, workload, lq, lu
        )
        assert len(result) == len(workload)

    def test_run_system_does_not_mutate_shared_graph(self):
        spec, graph, workload, lq, lu = dataset_workload(
            "webs", ratio=1.0, seed=3, lambda_q=10.0, window=0.5
        )
        edges_before = set(graph.edges())
        run_system(SystemSpec("FORA", "FORA"), spec, graph, workload, lq, lu)
        assert set(graph.edges()) == edges_before
