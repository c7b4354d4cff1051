"""Tests for synthetic graph generators."""

import pytest

from repro.graph.generators import (
    barabasi_albert_graph,
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    ring_graph,
    star_graph,
    watts_strogatz_graph,
)


class TestErdosRenyi:
    def test_gnm_exact_edge_count(self):
        g = erdos_renyi_graph(50, m=200, seed=1)
        assert g.num_nodes == 50
        assert g.num_edges == 200

    def test_gnm_undirected_doubles_edges(self):
        g = erdos_renyi_graph(30, m=60, directed=False, seed=2)
        assert g.num_edges == 120
        for u, v in list(g.edges()):
            assert g.has_edge(v, u)

    def test_gnp_density(self):
        g = erdos_renyi_graph(40, p=0.5, seed=3)
        expected = 40 * 39 * 0.5
        assert 0.6 * expected < g.num_edges < 1.4 * expected

    def test_requires_exactly_one_of_p_m(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(10)
        with pytest.raises(ValueError):
            erdos_renyi_graph(10, p=0.1, m=5)

    def test_m_too_large_raises(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(3, m=100)

    def test_deterministic_given_seed(self):
        a = erdos_renyi_graph(25, m=80, seed=42)
        b = erdos_renyi_graph(25, m=80, seed=42)
        assert set(a.edges()) == set(b.edges())

    def test_no_self_loops(self):
        g = erdos_renyi_graph(20, m=100, seed=4)
        assert all(u != v for u, v in g.edges())


class TestBarabasiAlbert:
    def test_size(self):
        g = barabasi_albert_graph(100, attach=3, seed=5)
        assert g.num_nodes == 100
        # every non-seed node emits at least `attach` edges
        assert g.num_edges >= 3 * (100 - 4)

    def test_degree_skew(self):
        """Preferential attachment should create hub nodes."""
        g = barabasi_albert_graph(300, attach=2, seed=6)
        degrees = sorted((g.in_degree(v) for v in g.nodes()), reverse=True)
        assert degrees[0] > 5 * (sum(degrees) / len(degrees))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            barabasi_albert_graph(3, attach=5)
        with pytest.raises(ValueError):
            barabasi_albert_graph(10, attach=0)

    def test_deterministic_given_seed(self):
        a = barabasi_albert_graph(60, attach=2, seed=9)
        b = barabasi_albert_graph(60, attach=2, seed=9)
        assert set(a.edges()) == set(b.edges())


class TestWattsStrogatz:
    def test_every_node_connected(self):
        g = watts_strogatz_graph(50, k=4, rewire_p=0.2, seed=7)
        assert all(g.out_degree(v) >= 1 for v in g.nodes())

    def test_symmetric(self):
        g = watts_strogatz_graph(30, k=4, rewire_p=0.3, seed=8)
        for u, v in list(g.edges()):
            assert g.has_edge(v, u)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            watts_strogatz_graph(10, k=3)
        with pytest.raises(ValueError):
            watts_strogatz_graph(4, k=4)


class TestDeterministicShapes:
    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 20
        assert all(g.out_degree(v) == 4 for v in g.nodes())

    def test_star(self):
        g = star_graph(6)
        assert g.out_degree(0) == 5
        assert all(g.out_degree(v) == 1 for v in range(1, 6))

    def test_ring_directed(self):
        g = ring_graph(4)
        assert g.num_edges == 4
        assert g.has_edge(3, 0)

    def test_ring_undirected(self):
        g = ring_graph(4, directed=False)
        assert g.num_edges == 8

    def test_grid(self):
        g = grid_graph(3, 3)
        assert g.num_nodes == 9
        # 2 * (rows*(cols-1) + (rows-1)*cols) directed edges
        assert g.num_edges == 2 * (3 * 2 + 2 * 3)
        assert g.out_degree(4) == 4  # center node
