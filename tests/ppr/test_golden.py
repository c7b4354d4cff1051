"""Golden regression tests: exact PPR values on fixed graphs.

These pin the oracle (and hence every accuracy comparison in the
repository) to hand-checkable numbers, so a silent change in the
dangling convention, the transition matrix, or the series accumulation
cannot slip through.
"""

import pytest

from repro.graph.digraph import DynamicGraph
from repro.graph.generators import ring_graph, star_graph
from repro.ppr.power_iteration import ppr_exact

ALPHA = 0.2


class TestGoldenValues:
    def test_two_cycle(self):
        """0 <-> 1: pi(0,0) = a/(1-(1-a)^2) = 0.2/0.36 = 5/9."""
        g = DynamicGraph.from_edges([(0, 1), (1, 0)])
        pi = ppr_exact(g, 0, alpha=ALPHA)
        assert pi[0] == pytest.approx(5 / 9, abs=1e-12)
        assert pi[1] == pytest.approx(4 / 9, abs=1e-12)

    def test_chain_with_dangling_tail(self):
        """0 -> 1 -> 2 (2 dangling):
        pi(0,0) = 0.2, pi(0,1) = 0.8*0.2 = 0.16, pi(0,2) = 0.64."""
        g = DynamicGraph.from_edges([(0, 1), (1, 2)])
        pi = ppr_exact(g, 0, alpha=ALPHA)
        assert pi[0] == pytest.approx(0.2, abs=1e-12)
        assert pi[1] == pytest.approx(0.16, abs=1e-12)
        assert pi[2] == pytest.approx(0.64, abs=1e-12)

    def test_directed_triangle(self):
        """0 -> 1 -> 2 -> 0: pi(0,0) = a/(1-(1-a)^3) = 0.2/0.488."""
        g = ring_graph(3)
        pi = ppr_exact(g, 0, alpha=ALPHA)
        denom = 1 - 0.8**3
        assert pi[0] == pytest.approx(0.2 / denom, abs=1e-12)
        assert pi[1] == pytest.approx(0.2 * 0.8 / denom, abs=1e-12)
        assert pi[2] == pytest.approx(0.2 * 0.64 / denom, abs=1e-12)

    def test_star_from_leaf(self):
        """Leaf -> hub -> leaves: closed forms from the 2-step recurrence.

        From leaf 1 of a 4-leaf star (hub 0), the end-at-hub probability
        y satisfies y = (1-a)(a + (1-a)y), giving y = 4/9 at a = 0.2;
        the remaining mass splits as 13/45 on the source leaf and 4/45
        on each other leaf (solving the symmetric linear system).
        """
        g = star_graph(5)  # hub 0, leaves 1..4
        pi = ppr_exact(g, 1, alpha=ALPHA)
        assert pi[0] == pytest.approx(4 / 9, abs=1e-12)
        assert pi[1] == pytest.approx(13 / 45, abs=1e-12)
        for v in (2, 3, 4):
            assert pi[v] == pytest.approx(4 / 45, abs=1e-12)
        assert pi.total_mass() == pytest.approx(1.0, abs=1e-10)

    def test_self_loop_only(self):
        g = DynamicGraph.from_edges([(0, 0)])
        pi = ppr_exact(g, 0, alpha=ALPHA)
        assert pi[0] == pytest.approx(1.0, abs=1e-12)
