"""DynamicGraph against a set-of-pairs model, one random step at a time.

The graph keeps no edge set of its own: membership, the edge count,
iteration, equality, ``copy`` and ``restore`` are all read off the
adjacency lists.  The model below is the edge set it no longer holds.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.graph.digraph import DynamicGraph

NODE = st.integers(0, 7)


class GraphAgainstSetModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.graph = DynamicGraph(3)
        self.nodes = {0, 1, 2}
        self.edges: set[tuple[int, int]] = set()
        self.saved: tuple[DynamicGraph, set[int], set[tuple[int, int]]] | None
        self.saved = None

    @rule(u=NODE, v=NODE)
    def add_edge(self, u, v):
        assert self.graph.add_edge(u, v) == ((u, v) not in self.edges)
        self.nodes |= {u, v}
        self.edges.add((u, v))

    @rule(u=NODE, v=NODE)
    def remove_edge(self, u, v):
        if (u, v) in self.edges:
            self.graph.remove_edge(u, v)
            self.edges.remove((u, v))
        else:
            try:
                self.graph.remove_edge(u, v)
            except KeyError:
                return
            raise AssertionError(f"removed absent edge ({u}, {v})")

    @rule(u=NODE, v=NODE)
    def toggle_edge(self, u, v):
        assert self.graph.toggle_edge(u, v) == ((u, v) not in self.edges)
        self.nodes |= {u, v}
        self.edges ^= {(u, v)}

    @rule(v=NODE)
    def add_node(self, v):
        assert self.graph.add_node(v) == (v not in self.nodes)
        self.nodes.add(v)

    @rule(v=NODE)
    def remove_node(self, v):
        if v not in self.nodes:
            return
        self.graph.remove_node(v)
        self.nodes.remove(v)
        self.edges = {e for e in self.edges if v not in e}

    @rule()
    def copy(self):
        before = self.graph.version
        clone = self.graph.copy()
        assert clone == self.graph and clone.version == before
        clone.toggle_edge(0, 0)  # the clone's lists are its own
        assert self.graph.has_edge(0, 0) == ((0, 0) in self.edges)
        assert clone != self.graph

    @rule()
    def snapshot(self):
        self.saved = (self.graph.snapshot(), set(self.nodes), set(self.edges))

    @rule()
    def restore(self):
        if self.saved is None:
            return
        snap, nodes, edges = self.saved
        before = self.graph.version
        self.graph.restore(snap)
        assert self.graph.version > before
        self.nodes, self.edges = set(nodes), set(edges)

    @invariant()
    def agrees_with_model(self):
        graph, nodes, edges = self.graph, self.nodes, self.edges
        assert set(graph.nodes()) == nodes and len(graph) == len(nodes)
        assert graph.num_edges == len(edges)
        listed = list(graph.edges())
        assert len(listed) == len(edges) and set(listed) == edges
        for u in range(8):
            assert (u in graph) == (u in nodes)
            for v in range(8):
                present = (u, v) in edges
                assert graph.has_edge(u, v) == present
                assert ((u, v) in graph) == present
        for v in nodes:
            assert graph.out_degree(v) == sum(1 for a, _ in edges if a == v)
            assert graph.in_degree(v) == sum(1 for _, b in edges if b == v)
        expected_mean = len(edges) / len(nodes) if nodes else 0.0
        assert graph.average_degree() == expected_mean
        # equality is about the edge set, not the order it was built in
        rebuilt = DynamicGraph()
        for v in sorted(nodes, reverse=True):
            rebuilt.add_node(v)
        for u, v in sorted(edges, reverse=True):
            rebuilt.add_edge(u, v)
        assert rebuilt == graph and graph == rebuilt


GraphAgainstSetModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestGraphAgainstSetModel = GraphAgainstSetModel.TestCase
