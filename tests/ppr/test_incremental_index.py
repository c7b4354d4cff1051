"""Property and regression tests for incremental walk-index maintenance.

The incremental scheme (repro.ppr.incremental) must be statistically
indistinguishable from the full-rebuild oracle: after any update
sequence, the stored terminals are samples from the *current* graph's
walk law.  The suite checks that three ways:

* a CI-style two-sample bound on aggregate terminal histograms against
  a fresh rebuild at a different seed (statistical equivalence),
* the ``validate_edge_map`` structural oracle plus the per-node count
  invariant after hypothesis-driven update sequences, including
  mid-sequence slack-row growth and a forced repack of the graph's rows,
* seeded determinism (two identically-seeded incremental indexes stay
  bit-for-bit equal through the same update stream).
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DynamicGraph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.updates import EdgeUpdate, random_update_stream
from repro.ppr.base import PPRParams
from repro.ppr.csr import csr_view
from repro.ppr.fora import ForaPlusIncremental
from repro.ppr.random_walk import WalkIndex
from repro.ppr.registry import ALGORITHMS
from repro.ppr.speedppr import SpeedPPRPlusIncremental

ALPHA = 0.2


def make_index(graph, wpu=5.0, seed=2, track=True):
    view = csr_view(graph)
    return WalkIndex(
        view, ALPHA, wpu, np.random.default_rng(seed), track_edges=track
    ), view


def drive_updates(graph, index, count, seed):
    """Apply ``count`` random toggles through the incremental path."""
    stream = random_update_stream(graph, count, rng=random.Random(seed))
    view = index.view
    for update in stream:
        applied = update.apply(graph)
        view = csr_view(graph)
        index.apply_edge_update(
            view, view.to_index(applied.u), view.to_index(applied.v),
            applied.kind,
        )
    return view


def counts_invariant(index, view):
    expected = np.maximum(
        np.ceil(
            index.walks_per_unit * np.maximum(view.out_deg, 1)
        ).astype(np.int64),
        1,
    )
    return bool((index.rows.lens[:index.rows.n] == expected).all())


def aggregate_histogram(index, view):
    terms = np.concatenate(
        [
            index.rows.row(i)
            for i in range(view.n)
        ]
    )
    return np.bincount(terms, minlength=view.n).astype(np.float64)


def assert_histograms_close(h1, h2, z=6.0):
    """Two-sample binomial bound per bin: the per-node terminal masses
    of two independent samples of the same law differ by at most
    z * sqrt(p(1-p)(1/n1 + 1/n2)) except with vanishing probability."""
    n1, n2 = h1.sum(), h2.sum()
    p1, p2 = h1 / n1, h2 / n2
    pooled = (h1 + h2) / (n1 + n2)
    bound = z * np.sqrt(
        np.maximum(pooled * (1.0 - pooled), 1e-12) * (1.0 / n1 + 1.0 / n2)
    )
    worst = np.max(np.abs(p1 - p2) - bound)
    assert worst <= 0.0, f"histogram bins exceed the two-sample bound by {worst}"


# ----------------------------------------------------------------------
# distributional equivalence vs the fresh-rebuild oracle
# ----------------------------------------------------------------------
def test_incremental_matches_fresh_rebuild_distribution():
    graph = barabasi_albert_graph(80, 3, seed=11)
    index, view = make_index(graph, wpu=8.0, seed=3)
    view = drive_updates(graph, index, 60, seed=5)

    oracle = WalkIndex(view, ALPHA, 8.0, np.random.default_rng(99))
    assert (index.rows.lens[:view.n] == oracle.rows.lens[:view.n]).all()
    assert_histograms_close(
        aggregate_histogram(index, view), aggregate_histogram(oracle, view)
    )
    assert index.validate_edge_map(view) == []


def test_lazy_map_build_on_untracked_index():
    """An index built without track_edges pays one traced rebuild on
    the first incremental update, then patches in O(affected)."""
    graph = barabasi_albert_graph(30, 2, seed=4)
    index, view = make_index(graph, track=False)
    assert index.edge_map is None
    update = EdgeUpdate(0, 17, "toggle").apply(graph)
    view = csr_view(graph)
    sampled = index.apply_edge_update(
        view, view.to_index(update.u), view.to_index(update.v), update.kind
    )
    assert sampled == index.total_walks  # the lazy full rebuild
    assert index.edge_map is not None
    assert index.validate_edge_map(view) == []


def test_unknown_kind_rejected():
    graph = barabasi_albert_graph(10, 2, seed=0)
    index, view = make_index(graph)
    with pytest.raises(ValueError, match="kind"):
        index.apply_edge_update(view, 0, 1, "toggle")


# ----------------------------------------------------------------------
# hypothesis: structural consistency under arbitrary update sequences
# ----------------------------------------------------------------------
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(8, 40),
    num_updates=st.integers(1, 40),
    wpu=st.floats(0.5, 6.0),
    seed=st.integers(0, 10_000),
    compact_at=st.one_of(st.none(), st.integers(0, 39)),
)
def test_edge_map_consistent_under_update_sequences(
    n, num_updates, wpu, seed, compact_at
):
    graph = barabasi_albert_graph(n, 2, seed=seed % 13)
    index, view = make_index(graph, wpu=wpu, seed=seed)
    stream = random_update_stream(
        graph, num_updates, rng=random.Random(seed + 1)
    )
    for pos, update in enumerate(stream):
        if compact_at == pos:
            # repack the rows mid-stream (what the slack rule does on
            # its own): exercises the map across packed/slack views.
            graph._out = graph._out.packed()
        applied = update.apply(graph)
        view = csr_view(graph)
        index.apply_edge_update(
            view, view.to_index(applied.u), view.to_index(applied.v),
            applied.kind,
        )
    assert index.validate_edge_map(view) == []
    assert counts_invariant(index, view)
    for i in range(view.n):
        row = index.rows.row(i)
        assert ((row >= 0) & (row < view.n)).all()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000))
def test_incremental_is_deterministic_under_seed(seed):
    graphs = [barabasi_albert_graph(25, 2, seed=7) for _ in range(2)]
    indexes = []
    for graph in graphs:
        index, _ = make_index(graph, wpu=3.0, seed=seed)
        drive_updates(graph, index, 15, seed=seed + 1)
        indexes.append(index)
    a, b = indexes
    assert (a.rows.lens == b.rows.lens).all()
    assert (a.rows.starts == b.rows.starts).all()
    for i in range(a.rows.n):
        assert (
            a.rows.row(i)
            == b.rows.row(i)
        ).all()


# ----------------------------------------------------------------------
# degree-churn budget tracking (grow + shrink through the algorithms)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "algo_cls", [ForaPlusIncremental, SpeedPPRPlusIncremental]
)
def test_incremental_algorithms_track_degree_churn(algo_cls):
    graph = barabasi_albert_graph(40, 2, seed=3)
    algorithm = algo_cls(graph, PPRParams(walk_cap=300))
    algorithm.seed(5)
    assert algorithm.index_maintenance == "incremental"
    builds_before = algorithm.timers.count("Index Build")
    stream = random_update_stream(graph, 25, rng=random.Random(9))
    for update in stream:
        algorithm.apply_update(update)
    index = algorithm._walk_index()
    view = algorithm.view
    assert counts_invariant(index, view)
    assert index.validate_edge_map(view) == []
    # updates went through the incremental path, not rebuilds
    assert algorithm.timers.count("Index Update") == 25
    assert algorithm.timers.count("Index Build") == builds_before


def test_registry_exposes_incremental_variants():
    assert ALGORITHMS["FORA+inc"] is ForaPlusIncremental
    assert ALGORITHMS["SpeedPPR+inc"] is SpeedPPRPlusIncremental


def test_dangling_hold_resampled_on_insert():
    """A walk that retired at a then-dangling node must be found (via
    its pseudo-edge) when that node gains an out-edge."""
    graph = DynamicGraph(num_nodes=3)
    graph.add_edge(0, 1)  # node 1 dangling: walks from 1 hold there
    index, view = make_index(graph, wpu=4.0, seed=1)
    one = view.to_index(1)
    assert (index.rows.row(one) == one).all()

    applied = EdgeUpdate(1, 2, "insert").apply(graph)
    view = csr_view(graph)
    index.apply_edge_update(
        view, view.to_index(applied.u), view.to_index(applied.v),
        applied.kind,
    )
    two = view.to_index(2)
    terms = index.rows.row(one)
    # every held walk either terminated at 1 by a later coin... no:
    # the held walks had *survived* their coin at 1, so they must all
    # have moved to 2 (1's only out-neighbor) before continuing.
    assert (terms != one).any() or int(index.rows.lens[one]) == 0
    assert set(terms.tolist()) <= {one, two}
    assert index.validate_edge_map(view) == []
