"""Which kernel runs.

The contract (see ``repro.ppr.kernels``): a push is ``frontier_push``
(never the deque schedule, whose answers differ in the low-order bits).
"""

from repro.evaluation import runner
from repro.graph.generators import barabasi_albert_graph
from repro.ppr.base import PPRParams
from repro.ppr.csr import csr_view
from repro.ppr.fora import Fora
from repro.ppr.kernels import frontier_push

ALPHA = 0.2


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
