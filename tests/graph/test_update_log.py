"""Tests for the structural update log backing incremental CSR catch-up."""

from repro.graph.digraph import (
    DynamicGraph,
    ADD_EDGE,
    ADD_NODE,
    MAX_UPDATE_LOG,
    REMOVE_EDGE,
    REMOVE_NODE,
    RESET,
)


class TestUpdatesSince:
    def test_no_updates_is_empty_list(self):
        g = DynamicGraph.from_edges([(0, 1)])
        assert g.updates_since(g.version) == []

    def test_replays_in_order(self):
        g = DynamicGraph()
        v0 = g.version
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.remove_edge(0, 1)
        entries = g.updates_since(v0)
        # node creations are interleaved with the edge ops
        assert [e for e in entries if e[0] in (ADD_EDGE, REMOVE_EDGE)] == [
            (ADD_EDGE, 0, 1),
            (ADD_EDGE, 1, 2),
            (REMOVE_EDGE, 0, 1),
        ]
        assert (ADD_NODE, 0, 0) in entries

    def test_node_removal_logged(self):
        g = DynamicGraph.from_edges([(0, 1)])
        v = g.version
        g.remove_node(1)
        assert (REMOVE_NODE, 1, 1) in g.updates_since(v)

    def test_version_ahead_of_log_returns_none(self):
        g = DynamicGraph.from_edges([(0, 1)])
        assert g.updates_since(g.version + 1) is None

    def test_copy_starts_fresh_window(self):
        g = DynamicGraph.from_edges([(0, 1)])
        h = g.copy()
        assert h.version > 0
        assert h.updates_since(0) is None
        assert h.updates_since(h.version) == []

    def test_no_ops_do_not_advance_version(self):
        g = DynamicGraph.from_edges([(0, 1)])
        v = g.version
        g.add_edge(0, 1)  # duplicate
        g.add_node(0)  # already present
        assert g.version == v
        assert g.updates_since(v) == []


class TestLogBounds:
    def test_log_trims_but_version_keeps_counting(self):
        g = DynamicGraph()
        for i in range(MAX_UPDATE_LOG + 10):
            g.toggle_edge(i % 7, (i + 1) % 7)
        assert len(g._log) <= MAX_UPDATE_LOG
        assert g.version == g._log_base + len(g._log)
        # recent history is still replayable
        recent = g.version - 5
        assert g.updates_since(recent) is not None
        assert len(g.updates_since(recent)) == 5

    def test_old_versions_fall_out_of_window(self):
        g = DynamicGraph()
        v0 = g.version
        for i in range(MAX_UPDATE_LOG + 10):
            g.toggle_edge(i % 7, (i + 1) % 7)
        assert g.updates_since(v0) is None


class TestSnapshotRestore:
    def test_restore_recovers_structure(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2)])
        snap = g.snapshot()
        g.add_edge(2, 0)
        g.remove_edge(0, 1)
        g.restore(snap)
        assert set(g.edges()) == {(0, 1), (1, 2)}
        assert g.num_nodes == 3

    def test_restore_version_is_monotone(self):
        """Regression: restore used to copy the snapshot's (smaller)
        version, so a later mutation could wrap back to a version a
        cached CSR view had already seen — serving stale adjacency."""
        g = DynamicGraph.from_edges([(0, 1)])
        snap = g.snapshot()
        g.add_edge(1, 2)
        v_mutated = g.version
        g.restore(snap)
        assert g.version > v_mutated
        assert g.version > snap.version

    def test_restore_logs_reset(self):
        g = DynamicGraph.from_edges([(0, 1)])
        snap = g.snapshot()
        g.add_edge(1, 2)
        v_before_restore = g.version
        g.restore(snap)
        # a consumer at the pre-restore version replays exactly the
        # RESET barrier, which forces it to rebuild
        assert g.updates_since(v_before_restore) == [(RESET, 0, 0)]
        # anything older is outside the retained window
        assert g.updates_since(v_before_restore - 1) is None

    def test_snapshot_is_independent(self):
        g = DynamicGraph.from_edges([(0, 1)])
        snap = g.snapshot()
        g.add_edge(1, 2)
        assert not snap.has_edge(1, 2)

    def test_restore_after_restore(self):
        g = DynamicGraph.from_edges([(0, 1)])
        snap = g.snapshot()
        g.restore(snap)
        v1 = g.version
        g.restore(snap)
        assert g.version > v1
        assert set(g.edges()) == {(0, 1)}


def test_version_log_invariant_under_random_ops():
    import random

    rng = random.Random(11)
    g = DynamicGraph(num_nodes=8)
    for _ in range(500):
        op = rng.random()
        if op < 0.8:
            g.toggle_edge(rng.randrange(8), rng.randrange(8))
        elif op < 0.9:
            g.add_node(rng.randrange(20))
        else:
            node = rng.choice(sorted(g.nodes()))
            g.remove_node(node)
            g.add_node(node)
        assert g.version == g._log_base + len(g._log)
