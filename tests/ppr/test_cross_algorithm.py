"""Cross-algorithm contract tests: every base algorithm obeys the same
interface and stays accurate through an update stream."""

import random

import numpy as np
import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.graph.updates import EdgeUpdate, random_update_stream
from repro.ppr.base import PPRParams
from repro.ppr.names import ALGORITHM_NAMES
from repro.ppr.power_iteration import ppr_exact
from repro.ppr.registry import ALGORITHMS

SSPPR_ALGORITHMS = [
    name for name in ALGORITHMS if name not in ("FORA-TopK", "TopPPR")
]


def test_names_leaf_lists_the_registry():
    """The front door offers ``--algorithm`` choices from the names-only
    leaf; a class registered without its name could not be served."""
    assert tuple(ALGORITHMS) == ALGORITHM_NAMES


@pytest.fixture
def graph():
    return barabasi_albert_graph(100, attach=3, seed=21)


@pytest.fixture
def params():
    return PPRParams(walk_cap=3000)


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_registry_instantiates(name, graph, params):
    alg = ALGORITHMS[name](graph.copy(), params)
    assert alg.name == name
    hps = alg.get_hyperparameters()
    assert set(hps) == set(alg.hyperparameter_names)
    assert all(0 < v < 1 for v in hps.values())


@pytest.mark.parametrize("name", SSPPR_ALGORITHMS)
def test_accuracy_through_update_stream(name, graph, params):
    """Interleave updates and queries; estimates must track the live graph."""
    alg = ALGORITHMS[name](graph.copy(), params)
    alg.seed(0)
    stream = random_update_stream(alg.graph, 12, rng=random.Random(7))
    for i in range(12):
        alg.apply_update(stream[i])
        if i % 4 == 3:
            exact = ppr_exact(alg.graph, 0, alpha=params.alpha)
            estimate = alg.query(0)
            worst = max(abs(estimate[v] - exact[v]) for v in range(100))
            assert worst < 0.06, f"{name} drifted after update {i}"


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_estimates_nonnegative_and_bounded(name, graph, params):
    alg = ALGORITHMS[name](graph.copy(), params)
    alg.seed(1)
    estimate = alg.query(2)
    values = estimate.values
    assert np.all(values >= 0)
    assert values.sum() < 1.2


@pytest.mark.parametrize("name", SSPPR_ALGORITHMS)
def test_source_dominates(name, graph, params):
    """pi(s, s) >= alpha must survive estimation."""
    alg = ALGORITHMS[name](graph.copy(), params)
    alg.seed(2)
    estimate = alg.query(7)
    assert estimate[7] >= params.alpha * 0.8


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_seeded_runs_reproducible(name, graph, params):
    a = ALGORITHMS[name](graph.copy(), params)
    b = ALGORITHMS[name](graph.copy(), params)
    a.seed(42)
    b.seed(42)
    ea = a.query(0)
    eb = b.query(0)
    np.testing.assert_allclose(ea.values, eb.values)
