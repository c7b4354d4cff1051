"""Tests for workload generation and dynamic patterns."""

import numpy as np
import pytest

from repro.graph.digraph import DynamicGraph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.updates import EdgeUpdate
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.workload import (
    Request,
    Workload,
    WorkloadSegment,
    dynamic_pattern_segments,
    generate_segmented_workload,
    generate_workload,
)


@pytest.fixture
def graph():
    return barabasi_albert_graph(50, attach=2, seed=1)


class TestRequest:
    def test_query_requires_source(self):
        with pytest.raises(ValueError):
            Request(0.0, QUERY)

    def test_update_requires_edge(self):
        with pytest.raises(ValueError):
            Request(0.0, UPDATE)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Request(0.0, "compact", source=1)

    def test_valid_requests(self):
        q = Request(1.0, QUERY, source=3)
        u = Request(2.0, UPDATE, update=EdgeUpdate(0, 1))
        assert q.source == 3
        assert u.update.u == 0


class TestGenerateWorkload:
    def test_rates_roughly_match(self, graph):
        w = generate_workload(graph, 40.0, 20.0, 100.0, rng=0)
        lq, lu = w.empirical_rates()
        assert lq == pytest.approx(40.0, rel=0.15)
        assert lu == pytest.approx(20.0, rel=0.2)

    def test_sorted_by_arrival(self, graph):
        w = generate_workload(graph, 10.0, 10.0, 20.0, rng=1)
        arrivals = [r.arrival for r in w]
        assert arrivals == sorted(arrivals)

    def test_sources_and_endpoints_valid(self, graph):
        nodes = set(graph.nodes())
        w = generate_workload(graph, 20.0, 20.0, 10.0, rng=2)
        for r in w:
            if r.kind == QUERY:
                assert r.source in nodes
            else:
                assert r.update.u in nodes and r.update.v in nodes
                assert r.update.u != r.update.v

    def test_pure_query_stream(self, graph):
        w = generate_workload(graph, 10.0, 0.0, 10.0, rng=3)
        assert w.num_updates == 0
        assert w.num_queries > 0

    def test_pure_update_stream(self, graph):
        w = generate_workload(graph, 0.0, 10.0, 10.0, rng=4)
        assert w.num_queries == 0
        assert w.num_updates > 0

    def test_negative_rate_rejected(self, graph):
        with pytest.raises(ValueError):
            generate_workload(graph, -1.0, 1.0, 10.0)

    def test_tiny_graph_rejected(self):
        with pytest.raises(ValueError):
            generate_workload(DynamicGraph(num_nodes=1), 1.0, 1.0, 10.0)

    def test_explicit_times_override(self, graph):
        w = generate_workload(
            graph,
            1.0,
            1.0,
            10.0,
            rng=5,
            query_times=np.array([1.0, 2.0]),
            update_times=np.array([1.5]),
        )
        assert w.num_queries == 2
        assert w.num_updates == 1

    def test_deterministic_given_seed(self, graph):
        a = generate_workload(graph, 5.0, 5.0, 20.0, rng=42)
        b = generate_workload(graph, 5.0, 5.0, 20.0, rng=42)
        assert [(r.arrival, r.kind) for r in a] == [
            (r.arrival, r.kind) for r in b
        ]

    def test_workload_sorts_unsorted_input(self):
        requests = [
            Request(2.0, QUERY, source=0),
            Request(1.0, QUERY, source=1),
        ]
        w = Workload(requests, 3.0, 1.0, 0.0)
        assert [r.arrival for r in w] == [1.0, 2.0]


class TestDynamicPatterns:
    @pytest.mark.parametrize(
        "pattern",
        [
            "query-inclined",
            "query-declined",
            "update-inclined",
            "update-declined",
            "balanced",
        ],
    )
    def test_segments_cover_window(self, pattern):
        segments = dynamic_pattern_segments(pattern, 100.0, rng=0)
        assert sum(s.duration for s in segments) == pytest.approx(100.0)
        assert all(s.lambda_q > 0 and s.lambda_u > 0 for s in segments)

    def test_query_inclined_ramps_up(self):
        segments = dynamic_pattern_segments("query-inclined", 200.0, rng=1)
        assert segments[0].lambda_q == pytest.approx(10.0)
        assert segments[-1].lambda_q == pytest.approx(30.0)
        assert all(s.lambda_u == 5.0 for s in segments)

    def test_update_declined_ramps_down(self):
        segments = dynamic_pattern_segments("update-declined", 200.0, rng=2)
        assert segments[0].lambda_u == pytest.approx(30.0)
        assert segments[-1].lambda_u == pytest.approx(10.0)

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            dynamic_pattern_segments("chaotic", 10.0)

    def test_segmented_workload(self, graph):
        segments = [
            WorkloadSegment(10.0, 20.0, 1.0),
            WorkloadSegment(10.0, 1.0, 20.0),
        ]
        w = generate_segmented_workload(graph, segments, rng=3)
        assert w.t_end == pytest.approx(20.0)
        first_half = [r for r in w if r.arrival < 10.0]
        second_half = [r for r in w if r.arrival >= 10.0]
        q1 = sum(1 for r in first_half if r.kind == QUERY)
        q2 = sum(1 for r in second_half if r.kind == QUERY)
        assert q1 > q2  # rates flipped between segments

    def test_segmented_workload_empty(self, graph):
        with pytest.raises(ValueError):
            generate_segmented_workload(graph, [])


#: (pattern, starting lambda_q, starting lambda_u) with the default
#: q_range/u_range/fixed arguments of dynamic_pattern_segments
PATTERN_STARTS = [
    ("query-inclined", 10.0, 5.0),
    ("query-declined", 30.0, 5.0),
    ("update-inclined", 5.0, 10.0),
    ("update-declined", 5.0, 30.0),
    ("balanced", 10.0, 10.0),
]


class TestOneSegmentRampRegression:
    """A window shorter than its first phase must run at the pattern's
    *starting* rate (the seed returned the ramp's end rate, so a short
    query-inclined window ran entirely at peak and a query-declined
    window started at its end rate)."""

    @pytest.mark.parametrize("pattern,start_q,start_u", PATTERN_STARTS)
    def test_single_segment_uses_starting_rate(
        self, pattern, start_q, start_u
    ):
        segments = dynamic_pattern_segments(pattern, 0.01, rng=0)
        assert len(segments) == 1  # phase mean is 10 s >> the window
        assert segments[0].lambda_q == pytest.approx(start_q)
        assert segments[0].lambda_u == pytest.approx(start_u)

    @pytest.mark.parametrize("pattern,start_q,start_u", PATTERN_STARTS)
    def test_multi_segment_start_unchanged(self, pattern, start_q, start_u):
        segments = dynamic_pattern_segments(pattern, 300.0, rng=1)
        assert len(segments) > 1
        assert segments[0].lambda_q == pytest.approx(start_q)
        assert segments[0].lambda_u == pytest.approx(start_u)


class TestProcessWithZeroRateRegression:
    """A caller-supplied arrival process must be honored even when the
    matching ``lambda_*`` hint is 0 (the seed gated generation on the
    hint, so TraceArrivals + placeholder rate yielded an empty stream
    with no error)."""

    def test_query_process_with_zero_rate_hint(self, graph):
        from repro.queueing.arrivals import TraceArrivals

        stamps = [0.5, 1.5, 2.5, 3.5]
        w = generate_workload(
            graph, 0.0, 0.0, 10.0, rng=0,
            query_process=TraceArrivals(stamps),
        )
        assert w.num_queries == len(stamps)
        # metadata records the empirical rate of the generated stream
        assert w.lambda_q == pytest.approx(len(stamps) / 10.0)
        assert w.lambda_u == 0.0

    def test_update_process_with_zero_rate_hint(self, graph):
        from repro.queueing.arrivals import TraceArrivals

        w = generate_workload(
            graph, 0.0, 0.0, 4.0, rng=0,
            update_process=TraceArrivals([1.0, 2.0]),
        )
        assert w.num_updates == 2
        assert w.lambda_u == pytest.approx(0.5)

    def test_positive_hint_still_recorded_as_configured(self, graph):
        from repro.queueing.arrivals import UniformArrivals

        w = generate_workload(
            graph, 8.0, 0.0, 20.0, rng=3,
            query_process=UniformArrivals(8.0),
        )
        assert w.lambda_q == 8.0  # configured rate, not empirical
        assert w.num_queries > 0


class TestVectorizedUpdateEndpoints:
    """Bulk endpoint sampling must match the sequential
    ``choice(size=2, replace=False)`` distribution: tails uniform over
    the nodes, heads uniform over the remaining nodes, no self-loops."""

    def test_no_self_loops_and_valid_endpoints(self, graph):
        nodes = set(graph.nodes())
        w = generate_workload(graph, 0.0, 200.0, 20.0, rng=7)
        assert w.num_updates > 1000
        for r in w:
            assert r.update.u in nodes and r.update.v in nodes
            assert r.update.u != r.update.v

    def test_ordered_pair_distribution_uniform(self):
        from repro.queueing.workload import _random_update_endpoints

        rng = np.random.default_rng(11)
        nodes = np.arange(6, dtype=np.int64)
        draws = 30_000
        u, v = _random_update_endpoints(draws, nodes, rng)
        assert not np.any(u == v)
        counts = np.zeros((6, 6), dtype=np.int64)
        np.add.at(counts, (u, v), 1)
        assert np.all(np.diag(counts) == 0)
        # 30 ordered pairs, 1000 expected each (sigma ~ 31): a uniform
        # sampler stays well inside +-15%; the old sequential draw
        # satisfies the same bound, so this is the shared contract
        off_diag = counts[~np.eye(6, dtype=bool)]
        expected = draws / 30.0
        assert np.all(np.abs(off_diag - expected) < 0.15 * expected)
        # chi-square statistic against uniform: df = 29, mean 29,
        # far tail starts ~ 60
        chi2 = float(np.sum((off_diag - expected) ** 2 / expected))
        assert chi2 < 60.0
