"""What ``engine="auto"`` means, and the scipy-absent fallback.

The contract (see ``repro.ppr.kernels``): ``auto`` is the vectorized
kernel of each family — a push is ``frontier_push`` (never the
``scalar`` schedule, whose answers differ in the low-order bits), a
power phase is scipy's matvec when the one cached probe passes and the
raw-row ``power_phase`` otherwise.  The fallback is forced here by
patching that probe.
"""

import numpy as np
import pytest

from repro.graph import DynamicGraph, barabasi_albert_graph
from repro.obs import get_metrics
from repro.ppr import (
    Fora,
    PPRParams,
    SpeedPPR,
    csr_view,
    forward_push,
    kernels,
)
from repro.ppr.kernels import (
    AUTO,
    ENGINE_CHOICES,
    ENGINES,
    frontier_push,
    resolve_engine,
)

ALPHA = 0.2


def build_graph(edges, n=10):
    g = DynamicGraph(num_nodes=n)
    for u, v in edges:
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
    return g


@pytest.fixture
def no_scipy(monkeypatch):
    """Make the scipy probe fail; yields the list of probe calls."""
    calls = []

    def failing_probe():
        calls.append(1)
        return False

    monkeypatch.setattr(kernels, "scipy_probe", failing_probe)
    kernels.scipy_available.cache_clear()
    yield calls
    kernels.scipy_available.cache_clear()


# ----------------------------------------------------------------------
# engine names and the probe
# ----------------------------------------------------------------------
class TestRegistry:
    def test_engine_choices_are_auto_plus_engines(self):
        assert ENGINE_CHOICES == (AUTO,) + ENGINES
        for choice in ENGINE_CHOICES:
            assert resolve_engine(choice, ENGINE_CHOICES) == choice
        with pytest.raises(ValueError, match="unknown kernel engine"):
            resolve_engine("gpu", ENGINE_CHOICES)

    def test_spmm_probe_matches_scipy(self):
        try:
            import scipy  # noqa: F401
            have = True
        except ImportError:  # pragma: no cover
            have = False
        assert kernels.scipy_probe() is have


# ----------------------------------------------------------------------
# what auto picks, and the fallback accounting
# ----------------------------------------------------------------------
class TestRouting:
    def test_single_source_routes_to_frontier(self):
        view = csr_view(build_graph([(0, 1), (1, 2), (2, 0), (2, 3)]))
        auto = forward_push(view, 0, ALPHA, 1e-4, engine="auto")
        oracle = frontier_push(view, 0, ALPHA, 1e-4)
        np.testing.assert_array_equal(auto.reserve, oracle.reserve)
        np.testing.assert_array_equal(auto.residue, oracle.residue)
        assert auto.pushes == oracle.pushes

    def test_fora_auto_equals_frontier_under_one_seed(self):
        g = barabasi_albert_graph(300, attach=2, seed=5)
        answers = []
        for engine in ("auto", "frontier"):
            algo = Fora(g, PPRParams(walk_cap=200), engine=engine)
            algo.seed(7)
            answers.append([algo.query(s).values for s in range(4)])
        for auto, frontier in zip(*answers):
            np.testing.assert_array_equal(auto, frontier)

    def test_disabled_backend_forces_power_fallback(self, no_scipy):
        fallbacks = get_metrics().counter("dispatch.fallbacks")
        before = fallbacks.value
        g = barabasi_albert_graph(40, attach=2, seed=9)
        algo = SpeedPPR(g, PPRParams(walk_cap=200), engine="auto")
        for source in range(3):
            algo.query(source)
            assert algo.last_query_stats.extra["backend"] == "power"
        # a degradation is counted once, not per query
        assert fallbacks.value == before + 1

    def test_probe_failure_is_cached_and_clearable(self, no_scipy):
        assert not kernels.scipy_available()
        assert not kernels.scipy_available()
        assert len(no_scipy) == 1  # cached
        kernels.scipy_available.cache_clear()
        assert not kernels.scipy_available()
        assert len(no_scipy) == 2


# ----------------------------------------------------------------------
# forced fallback through a full algorithm (scipy treated as absent)
# ----------------------------------------------------------------------
class TestForcedFallback:
    def test_speedppr_auto_falls_back_without_scipy(self, no_scipy):
        """``auto`` without scipy answers exactly as the explicit
        raw-row engine does, draw for draw."""
        g = barabasi_albert_graph(60, attach=2, seed=8)
        auto = SpeedPPR(g, PPRParams(walk_cap=500), engine="auto")
        auto.seed(3)
        raw = SpeedPPR(g, PPRParams(walk_cap=500), engine="frontier")
        raw.seed(3)
        for source in range(4):
            np.testing.assert_array_equal(
                auto.query(source).values, raw.query(source).values
            )
            assert auto.last_query_stats.extra["backend"] == "power"

    def test_speedppr_single_query_fallback(self, no_scipy):
        g = barabasi_albert_graph(40, attach=2, seed=9)
        algo = SpeedPPR(g, PPRParams(walk_cap=200), engine="auto")
        algo.query(1)
        assert algo.last_query_stats.extra["backend"] == "power"

    def test_scalar_only_algorithms_degrade_auto_to_scalar(self):
        from repro.ppr import ResAcc

        g = barabasi_albert_graph(30, attach=2, seed=1)
        algo = ResAcc(g, PPRParams(walk_cap=100))
        algo.set_engine("auto")
        assert algo.engine == "scalar"
