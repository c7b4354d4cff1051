"""Tests for edge-list I/O."""

import pytest

from repro.graph.digraph import DynamicGraph
from repro.graph.io import load_edge_list, save_edge_list


def test_round_trip(tmp_path):
    g = DynamicGraph.from_edges([(0, 1), (1, 2), (5, 0)])
    path = tmp_path / "graph.txt"
    save_edge_list(g, path)
    loaded = load_edge_list(path)
    assert set(loaded.edges()) == set(g.edges())


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# header\n\n0 1\n# mid comment\n1 2\n")
    g = load_edge_list(path)
    assert g.num_edges == 2


def test_undirected_load(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0 1\n")
    g = load_edge_list(path, directed=False)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_malformed_line_raises(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0\n")
    with pytest.raises(ValueError, match="expected 'u v'"):
        load_edge_list(path)


def test_extra_columns_tolerated(tmp_path):
    """SNAP files sometimes carry weights/timestamps; we take cols 0-1."""
    path = tmp_path / "graph.txt"
    path.write_text("0 1 1234567\n")
    g = load_edge_list(path)
    assert g.has_edge(0, 1)


def test_header_written(tmp_path):
    g = DynamicGraph.from_edges([(0, 1)])
    path = tmp_path / "graph.txt"
    save_edge_list(g, path)
    assert path.read_text().startswith("# nodes: 2 edges: 1\n")
