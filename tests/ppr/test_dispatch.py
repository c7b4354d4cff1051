"""Which kernel runs, and the scipy-absent fallback.

The contract (see ``repro.ppr.kernels``): a push is ``frontier_push``
(never the deque schedule, whose answers differ in the low-order bits),
a power phase is scipy's matvec when the one cached probe passes and
the raw-row ``power_phase`` otherwise.  The fallback is forced here by
patching that probe.
"""

import numpy as np
import pytest

from repro.evaluation import runner
from repro.graph.generators import barabasi_albert_graph
from repro.obs.metrics import get_metrics
from repro.ppr import kernels
from repro.ppr.base import PPRParams
from repro.ppr.csr import csr_view
from repro.ppr.fora import Fora
from repro.ppr.kernels import frontier_push
from repro.ppr.speedppr import SpeedPPR

ALPHA = 0.2


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
# the probe
# ----------------------------------------------------------------------
class TestRegistry:
    def test_spmm_probe_matches_scipy(self):
        try:
            import scipy  # noqa: F401
            have = True
        except ImportError:  # pragma: no cover
            have = False
        assert kernels.scipy_probe() is have


# ----------------------------------------------------------------------
# what runs, and the fallback accounting
# ----------------------------------------------------------------------
class TestRouting:
    def test_single_source_routes_to_frontier(self):
        """FORA's push phase is the frontier schedule (1 669 pushes
        here; the deque would do 1 263)."""
        g = barabasi_albert_graph(300, attach=2, seed=5)
        algo = Fora(g, PPRParams(walk_cap=200), r_max=1e-4)
        algo.query(0)
        oracle = frontier_push(csr_view(g), 0, ALPHA, 1e-4)
        assert algo.last_query_stats.pushes == oracle.pushes == 1669

    def test_fora_auto_equals_frontier_under_one_seed(self):
        """``engine="auto"``, which benchmarks/e2e/probe.py passes to the
        runner shim, is the one kernel: same seed, same answers."""
        g = barabasi_albert_graph(300, attach=2, seed=5)
        auto = runner.build_algorithm(
            "FORA", g.copy(), 200, seed=7, engine="auto"
        )
        params = PPRParams(alpha=0.2, epsilon=0.5, walk_cap=200)
        frontier = Fora(g.copy(), params)
        frontier.seed(7)
        for source in range(4):
            assert (
                auto.query(source).values.tobytes()
                == frontier.query(source).values.tobytes()
            )

    def test_disabled_backend_forces_power_fallback(self, no_scipy):
        fallbacks = get_metrics().counter("dispatch.fallbacks")
        before = fallbacks.value
        g = barabasi_albert_graph(40, attach=2, seed=9)
        algo = SpeedPPR(g, PPRParams(walk_cap=200))
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
    def test_speedppr_auto_falls_back_without_scipy(self, monkeypatch):
        """Without scipy the raw-row sweeps answer what the matvec
        does, up to summation order, draw for draw."""
        g = barabasi_albert_graph(60, attach=2, seed=8)

        def answers():
            algo = SpeedPPR(g, PPRParams(walk_cap=500))
            algo.seed(3)
            values = [algo.query(source).values for source in range(4)]
            return values, algo.last_query_stats.extra["backend"]

        with_scipy, backend = answers()
        assert backend == "scipy"
        monkeypatch.setattr(kernels, "scipy_probe", lambda: False)
        kernels.scipy_available.cache_clear()
        try:
            without, backend = answers()
        finally:
            monkeypatch.undo()
            kernels.scipy_available.cache_clear()
        assert backend == "power"
        for a, b in zip(with_scipy, without):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_speedppr_single_query_fallback(self, no_scipy):
        g = barabasi_albert_graph(40, attach=2, seed=9)
        algo = SpeedPPR(g, PPRParams(walk_cap=200))
        algo.query(1)
        assert algo.last_query_stats.extra["backend"] == "power"
