"""Tests for the algorithm registry."""

import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.ppr.registry import build_algorithm


class TestBuildAlgorithm:
    def test_builds_registered_algorithm(self):
        graph = barabasi_albert_graph(80, attach=5, seed=0)
        alg = build_algorithm("FORA", graph, walk_cap=500, seed=1)
        assert alg.name == "FORA"
        assert alg.params.walk_cap == 500

    def test_unknown_algorithm(self):
        graph = barabasi_albert_graph(80, attach=5, seed=0)
        with pytest.raises(KeyError):
            build_algorithm("PageRank2000", graph, walk_cap=500)
