"""Shared fixtures for PPR tests."""

import pytest

from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.ppr.base import PPRParams


@pytest.fixture
def small_ba_graph():
    """A 120-node power-law graph (fresh copy per test)."""
    return barabasi_albert_graph(120, attach=3, seed=11)


@pytest.fixture
def small_er_graph():
    return erdos_renyi_graph(80, m=400, seed=12)


@pytest.fixture
def params():
    """Paper parameters with a test-friendly walk cap."""
    return PPRParams(alpha=0.2, epsilon=0.5, walk_cap=4000)
