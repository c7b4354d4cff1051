"""Tests for the dataset registry."""

import pytest

from repro.evaluation.datasets import DATASETS, get_dataset


class TestRegistry:
    def test_all_paper_datasets_present(self):
        assert set(DATASETS) == {
            "webs", "dblp", "pokec", "lj", "orkut", "twitter"
        }

    def test_lookup_case_insensitive(self):
        assert get_dataset("DBLP").name == "dblp"

    def test_unknown_dataset(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            get_dataset("facebook")

    def test_size_ladder_preserved(self):
        """The relative ordering of Table II must survive scaling."""
        node_order = ["webs", "dblp", "pokec", "lj"]
        node_counts = [DATASETS[name].nodes for name in node_order]
        assert node_counts == sorted(node_counts)
        edge_order = ["dblp", "pokec", "lj", "orkut", "twitter"]
        edge_counts = [DATASETS[name].edges for name in edge_order]
        assert edge_counts == sorted(edge_counts)

    def test_directedness_matches_table2(self):
        assert DATASETS["webs"].directed
        assert not DATASETS["dblp"].directed
        assert not DATASETS["orkut"].directed
        assert DATASETS["twitter"].directed


class TestBuild:
    def test_build_deterministic(self):
        spec = get_dataset("webs")
        a = spec.build(seed=3)
        b = spec.build(seed=3)
        assert set(a.edges()) == set(b.edges())

    def test_build_approximate_size(self):
        spec = get_dataset("dblp")
        graph = spec.build(seed=0)
        assert graph.num_nodes == spec.nodes
        assert 0.3 * spec.edges < graph.num_edges < 4 * spec.edges

    def test_undirected_dataset_symmetric(self):
        graph = get_dataset("dblp").build(seed=1)
        for u, v in list(graph.edges())[:200]:
            assert graph.has_edge(v, u)

    def test_scale_shrinks(self):
        spec = get_dataset("pokec")
        small = spec.build(seed=0, scale=0.1)
        assert small.num_nodes == pytest.approx(spec.nodes * 0.1, rel=0.2)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            get_dataset("webs").build(scale=0.0)
