"""The array-backed edge→walk map against a dict reference model.

``DictModel`` below is the layout the map replaced (walk id → ordered
edge list, answered by scanning) kept as the oracle: hypothesis drives
both through random register / unregister / suffix-replace / row
refresh / grow / shrink / relocate / compact sequences and after every
step ``walks_from``, ``walks_through``, every stored path and the
first-affected step must agree.  The map only ever sees what
``WalkIndex`` would hand it — a row layout and sampler traces — so the
paths here are synthetic node sequences, not walks on a graph.

The second half audits the two ``WalkIndex`` paths that reach the map
without going through ``apply_edge_update``: Agenda's ``refresh_nodes``
with tracking on, and node-count growth via ``_ensure_node_rows``.
"""

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import EdgeUpdate, barabasi_albert_graph
from repro.graph.updates import random_update_stream
from repro.ppr import csr_view
from repro.ppr.csr import SLACK_FLOOR
from repro.ppr.incremental import SLOT_BITS, EdgeWalkMap
from repro.ppr.random_walk import WalkIndex

ALPHA = 0.2
NUM_NODES = 6
OPS = (
    "register", "unregister", "replace", "replace_edge", "refresh",
    "grow", "shrink", "relocate", "compact",
)


class DictModel:
    """Walk id → ordered ``(src, dst)`` list; lookups scan every path."""

    def __init__(self):
        self.paths = {}

    def register(self, wid, path):
        self.paths.pop(wid, None)
        if path:
            self.paths[wid] = list(path)

    def affected(self, u, v=None):
        """``{wid: first step out of u (to v)}`` in ascending wid."""
        found = {}
        for wid in sorted(self.paths):
            for i, (a, b) in enumerate(self.paths[wid]):
                if a == u and (v is None or b == v):
                    found[wid] = i
                    break
        return found


def empty_tracked_index():
    """A real ``WalkIndex`` row layout with an empty map attached."""
    graph = barabasi_albert_graph(NUM_NODES, attach=2, seed=1)
    index = WalkIndex(
        csr_view(graph), ALPHA, 1.5, np.random.default_rng(0)
    )
    index.edge_map = EdgeWalkMap(index)
    return index


def random_path(rng, start):
    """0-5 steps from ``start`` (a repeated node reads as a hold)."""
    nodes = [start] + [
        rng.randrange(NUM_NODES) for _ in range(rng.randrange(6))
    ]
    return list(zip(nodes[:-1], nodes[1:]))


def as_trace(paths):
    """Sampler-style recorder: one ``(batch, src, dst)`` per step no."""
    trace = []
    for step in range(max((len(p) for p in paths), default=0)):
        batch = [i for i, p in enumerate(paths) if len(p) > step]
        src, dst = zip(*(paths[i][step] for i in batch))
        trace.append(
            tuple(np.array(c, dtype=np.int64) for c in (batch, src, dst))
        )
    return trace


def register(index, model, rng, node, slots):
    paths = [random_path(rng, node) for _ in slots]
    index.edge_map.register(
        np.full(len(slots), node, dtype=np.int64),
        np.array(slots, dtype=np.int64),
        as_trace(paths),
    )
    for slot, path in zip(slots, paths):
        model.register((node << SLOT_BITS) | slot, path)


def unregister(index, model, node, slots):
    index.edge_map.unregister(
        int(index.offsets[node]) + np.array(slots, dtype=np.int64)
    )
    for slot in slots:
        model.paths.pop((node << SLOT_BITS) | slot, None)


def apply_op(op, rng, index, model):
    emap = index.edge_map
    node = rng.randrange(NUM_NODES)
    count = int(index.counts[node])
    some_slots = rng.sample(range(count), rng.randint(1, count))
    if op == "register":
        register(index, model, rng, node, some_slots)
    elif op == "unregister":
        unregister(index, model, node, some_slots)
    elif op in ("replace", "replace_edge"):
        v = rng.randrange(NUM_NODES) if op == "replace_edge" else None
        wids, positions, split = emap.affected(node, v)
        expected = model.affected(node, v)
        assert wids.tolist() == list(expected)
        assert split.tolist() == list(expected.values())
        hops = [rng.randrange(NUM_NODES) for _ in expected]
        suffixes = [random_path(rng, hop) for hop in hops]
        emap.replace_suffix(
            wids, positions, split, np.array(hops, dtype=np.int64),
            as_trace(suffixes),
        )
        for wid, hop, suffix in zip(expected, hops, suffixes):
            kept = model.paths[wid][: expected[wid]]
            model.register(wid, kept + [(node, hop)] + suffix)
    elif op == "refresh":
        unregister(index, model, node, list(range(count)))
        register(index, model, rng, node, list(range(count)))
    elif op == "grow":
        if count == int(index.caps[node]):
            index._relocate_row(node, count + 1)
        index.counts[node] = count + 1
        register(index, model, rng, node, [count])
    elif op == "shrink" and count > 1:
        unregister(index, model, node, [count - 1])
        index.counts[node] = count - 1
    elif op == "relocate":
        index._relocate_row(node, count + rng.randrange(3))
    elif op == "compact":
        emap._compact()


def assert_agree(index, model):
    emap = index.edge_map
    for node in range(NUM_NODES):
        for slot in range(int(index.counts[node])):
            wid = (node << SLOT_BITS) | slot
            assert emap.path(wid) == model.paths.get(wid, [])
        expected = model.affected(node)
        wids, _, split = emap.affected(node)
        assert wids.tolist() == list(expected)
        assert split.tolist() == list(expected.values())
        assert emap.walks_from(node).tolist() == list(expected)
        for v in range(NUM_NODES):
            assert emap.walks_through(node, v).tolist() == list(
                model.affected(node, v)
            )
    assert emap.live_steps == sum(len(p) for p in model.paths.values())


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 2**16)),
        min_size=1,
        max_size=40,
    )
)
def test_map_agrees_with_the_dict_model(ops):
    index = empty_tracked_index()
    model = DictModel()
    for op, seed in ops:
        apply_op(op, random.Random(seed), index, model)
        assert_agree(index, model)


def test_churn_crosses_the_compaction_rule_and_stays_bounded():
    """Enough rewrites to trip the dead-exceeds-live rule on its own
    (no explicit ``_compact``): answers unchanged, garbage bounded."""
    index = empty_tracked_index()
    model = DictModel()
    rng = random.Random(5)
    for node in range(NUM_NODES):
        slots = list(range(int(index.counts[node])))
        register(index, model, rng, node, slots)
    fresh_bytes = index.edge_map.nbytes
    compactions = 0
    for _ in range(600):
        dead_before = index.edge_map.dead_steps
        op = rng.choice(("replace", "refresh", "replace_edge"))
        apply_op(op, rng, index, model)
        compactions += index.edge_map.dead_steps < dead_before
    assert compactions > 0
    assert_agree(index, model)
    emap = index.edge_map
    assert emap.dead_steps <= emap.live_steps + SLACK_FLOOR
    # int64 postings may fill 3 x (live + floor) before the rule fires
    assert emap.nbytes <= 3 * (fresh_bytes + 8 * SLACK_FLOOR)


# ----------------------------------------------------------------------
# WalkIndex paths into the map other than apply_edge_update
# ----------------------------------------------------------------------
def budget_holds(index, view):
    return bool((index.counts == index._target_counts(view.out_deg)).all())


def test_refresh_nodes_with_tracking_on_keeps_the_map_consistent():
    """Agenda's lazy fix on a tracked index: whole rows are resampled
    (unregister + register), budgets follow the degrees, rows that
    outgrow their capacity relocate — and the audit stays clean."""
    graph = barabasi_albert_graph(60, attach=3, seed=2)
    index = WalkIndex(
        csr_view(graph), ALPHA, 4.0, np.random.default_rng(1),
        track_edges=True,
    )
    rng = random.Random(8)
    for _ in range(12):
        touched = set()
        for update in random_update_stream(graph, 15, rng=rng):
            touched.add(update.apply(graph).u)
        view = csr_view(graph)
        dirty = np.array(sorted(view.to_index(u) for u in touched))
        resampled = index.refresh_nodes(view, dirty)
        assert resampled == int(index.counts[dirty].sum())
        assert (
            index.counts[dirty] == index._target_counts(view.out_deg[dirty])
        ).all()
    # rows never refreshed still hold walks over deleted edges (what
    # Agenda's sigma accounts for); refresh them all before the audit
    view = csr_view(graph)
    index.refresh_nodes(view, np.arange(view.n))
    assert index.validate_edge_map(view) == []
    assert budget_holds(index, view)


def test_node_growth_appends_tracked_rows():
    """Updates that introduce brand-new nodes: ``_ensure_node_rows``
    appends (and registers) their rows on both maintenance paths."""
    graph = barabasi_albert_graph(30, attach=2, seed=3)
    index = WalkIndex(
        csr_view(graph), ALPHA, 3.0, np.random.default_rng(2),
        track_edges=True,
    )
    for step, new_node in enumerate(range(30, 42)):
        applied = EdgeUpdate(step, new_node, "insert").apply(graph)
        view = csr_view(graph)
        if step % 2:
            index.apply_edge_update(
                view, view.to_index(applied.u), view.to_index(applied.v),
                applied.kind,
            )
        else:
            index.refresh_nodes(view, np.array([view.to_index(applied.u)]))
        assert index.counts.size == view.n
        fresh = view.to_index(new_node)
        # the new node is dangling: its walks that survive the coin hold
        assert (
            index.terminals_for(fresh, int(index.counts[fresh])) == fresh
        ).all()
    # an insert out of a grown node finds its held walks
    applied = EdgeUpdate(41, 0, "insert").apply(graph)
    view = csr_view(graph)
    index.apply_edge_update(
        view, view.to_index(41), view.to_index(0), applied.kind
    )
    assert index.validate_edge_map(view) == []
    assert budget_holds(index, view)
