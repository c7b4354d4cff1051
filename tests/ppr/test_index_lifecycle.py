"""The walk-index lifecycle contract, once, for every index-based method.

``repro.ppr.base.WalkIndexOwner`` is the only owner of the lifecycle, so
one parametrised suite over the registry names replaces per-class
copies: build on first use (never in the constructor, never twice),
version-keyed validity, rebuild on reseed / retune, and a per-update
policy chosen by class.
"""

import random

import numpy as np
import pytest

from repro.evaluation.runner import build_algorithm
from repro.graph import EdgeUpdate, barabasi_albert_graph, random_update_stream
from repro.obs import get_metrics
from repro.ppr import ALGORITHMS, PPRParams

INDEX_BASED = ("FORA+", "FORA+inc", "SpeedPPR+", "SpeedPPR+inc", "Agenda")
WALK_CAP = 1500

pytestmark = pytest.mark.parametrize("name", INDEX_BASED)


@pytest.fixture
def graph():
    return barabasi_albert_graph(120, attach=3, seed=11)


def build(name, graph, seed=0):
    return build_algorithm(name, graph, WALK_CAP, seed=seed)


def builds(algorithm):
    return algorithm.timers.count("Index Build")


def walks_resampled():
    counters = get_metrics().snapshot()["counters"]
    return int(counters.get("index.walks_resampled", 0))


class TestBuiltOnFirstUse:
    def test_constructor_builds_nothing(self, name, graph):
        algorithm = ALGORITHMS[name](graph, PPRParams(walk_cap=WALK_CAP))
        assert builds(algorithm) == 0
        algorithm.query(0)
        assert builds(algorithm) == 1

    def test_build_algorithm_builds_once(self, name, graph):
        """Regression: the constructor built an index that the
        ``seed()`` inside ``build_algorithm`` threw away and rebuilt."""
        assert builds(build(name, graph)) == 1

    def test_same_seed_same_first_answer(self, name, graph):
        first = build(name, graph.copy()).query(0)
        again = build(name, graph.copy()).query(0)
        assert np.array_equal(first.values, again.values)

    def test_update_before_first_use_leaves_a_valid_index(self, name, graph):
        algorithm = ALGORITHMS[name](graph, PPRParams(walk_cap=WALK_CAP))
        algorithm.apply_update(EdgeUpdate(0, 60))
        view = algorithm.view
        index = algorithm.index
        assert index.view.version == view.version
        assert builds(algorithm) == 1
        if algorithm.index_maintenance == "incremental":
            assert index.validate_edge_map(view) == []
            algorithm.apply_update(EdgeUpdate(1, 61))
            assert algorithm.timers.count("Index Update") == 1
            assert builds(algorithm) == 1


class TestLifecycle:
    def test_compaction_at_same_version_does_not_rebuild(self, name, graph):
        algorithm = build(name, graph)
        graph._csr_cache = None  # a brand-new view object, same version
        assert algorithm.view is not algorithm.index.view
        algorithm.query(0)
        assert builds(algorithm) == 1

    def test_retune_resizes_the_index(self, name, graph):
        algorithm = build(name, graph)
        walks_before = algorithm.index.total_walks
        algorithm.set_hyperparameters(r_max=algorithm.r_max * 4)
        assert algorithm.index.total_walks > walks_before
        assert builds(algorithm) == 2

    def test_reseed_rebuilds(self, name, graph):
        algorithm = build(name, graph, seed=1)
        algorithm.seed(0)
        assert builds(algorithm) == 2
        fresh = build(name, graph.copy(), seed=0)
        assert np.array_equal(
            algorithm.index.terminals, fresh.index.terminals
        )

    def test_updates_keep_the_index_at_the_graph_version(self, name, graph):
        algorithm = build(name, graph)
        policy = algorithm.index_maintenance
        stream = random_update_stream(graph, 10, rng=random.Random(9))
        for update in stream:
            resampled_before = walks_resampled()
            algorithm.apply_update(update)
            index = algorithm._index
            assert index.view.version == algorithm.view.version
            if policy == "incremental":
                resampled = walks_resampled() - resampled_before
                assert resampled < index.total_walks
        # rebuild regenerates per update; FORA+inc patches and Agenda
        # tracks inaccuracy, so neither builds again
        rebuilds = name in ("FORA+", "SpeedPPR+")
        assert builds(algorithm) == (11 if rebuilds else 1)
        algorithm.query(0)
        assert builds(algorithm) == (11 if rebuilds else 1)
