"""Property-based tests of segmented workload generation.

Hypothesis drives rates, durations, and seeds through the properties
every consumer of :func:`generate_segmented_workload` relies on:
concatenation keeps arrivals sorted and inside the window, each
segment's empirical rate tracks its configured rate, the five paper
patterns ramp between their exact endpoints, and the workload metadata
stays consistent with the segment schedule.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import barabasi_albert_graph
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.workload import (
    WorkloadSegment,
    dynamic_pattern_segments,
    generate_segmented_workload,
)

GRAPH = barabasi_albert_graph(60, attach=2, seed=1)

PATTERNS = (
    "query-inclined",
    "query-declined",
    "update-inclined",
    "update-declined",
    "balanced",
)

# exactly zero or a sane positive rate: subnormal lambdas make the
# exponential scale 1/lambda overflow without testing anything new
rates = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=40.0))
durations = st.floats(min_value=0.5, max_value=20.0)
segments_strategy = st.lists(
    st.builds(WorkloadSegment, durations, rates, rates),
    min_size=1,
    max_size=6,
).filter(lambda segs: any(s.lambda_q > 0 or s.lambda_u > 0 for s in segs))


def tolerance(expected: float) -> float:
    """~7 sigma for a Poisson count plus slack for tiny expectations."""
    return 7.0 * np.sqrt(expected) + 10.0


class TestConcatenation:
    @given(segments=segments_strategy, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sorted_and_inside_window(self, segments, seed):
        workload = generate_segmented_workload(GRAPH, segments, rng=seed)
        arrivals = [r.arrival for r in workload]
        assert arrivals == sorted(arrivals)
        total = sum(s.duration for s in segments)
        assert workload.t_end == total
        assert all(0.0 <= a < total for a in arrivals)

    @given(segments=segments_strategy, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_window_accounting(self, segments, seed):
        """Every request falls into exactly one segment's window."""
        workload = generate_segmented_workload(GRAPH, segments, rng=seed)
        offsets = np.cumsum([0.0] + [s.duration for s in segments])
        binned = 0
        for lo, hi in zip(offsets, offsets[1:]):
            binned += sum(1 for r in workload if lo <= r.arrival < hi)
        assert binned == len(workload)


class TestPerSegmentRates:
    @given(segments=segments_strategy, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_counts_track_configured_rates(self, segments, seed):
        workload = generate_segmented_workload(GRAPH, segments, rng=seed)
        offset = 0.0
        for segment in segments:
            lo, hi = offset, offset + segment.duration
            queries = sum(
                1 for r in workload if r.kind == QUERY and lo <= r.arrival < hi
            )
            updates = sum(
                1 for r in workload if r.kind == UPDATE and lo <= r.arrival < hi
            )
            expected_q = segment.lambda_q * segment.duration
            expected_u = segment.lambda_u * segment.duration
            assert abs(queries - expected_q) <= tolerance(expected_q)
            assert abs(updates - expected_u) <= tolerance(expected_u)
            if segment.lambda_q == 0:
                assert queries == 0
            if segment.lambda_u == 0:
                assert updates == 0
            offset = hi


class TestRampEndpoints:
    @given(
        pattern=st.sampled_from(PATTERNS),
        total_time=st.floats(min_value=30.0, max_value=120.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_endpoints_exact(self, pattern, total_time, seed):
        q_range, u_range = (10.0, 30.0), (10.0, 30.0)
        q_fixed = u_fixed = 5.0
        segments = dynamic_pattern_segments(
            pattern, total_time, rng=seed, mean_phase=5.0
        )
        starts = {
            "query-inclined": (q_range[0], u_fixed),
            "query-declined": (q_range[1], u_fixed),
            "update-inclined": (q_fixed, u_range[0]),
            "update-declined": (q_fixed, u_range[1]),
            "balanced": (q_range[0], u_range[0]),
        }
        mid_q = (q_range[0] + q_range[1]) / 2
        mid_u = (u_range[0] + u_range[1]) / 2
        ends = {
            "query-inclined": (q_range[1], u_fixed),
            "query-declined": (q_range[0], u_fixed),
            "update-inclined": (q_fixed, u_range[1]),
            "update-declined": (q_fixed, u_range[0]),
            "balanced": (mid_q, mid_u),
        }
        first, last = segments[0], segments[-1]
        assert (first.lambda_q, first.lambda_u) == starts[pattern]
        if len(segments) > 1:
            assert (last.lambda_q, last.lambda_u) == ends[pattern]
        else:
            # single phase: no room to ramp — stays at the start rate
            assert (last.lambda_q, last.lambda_u) == starts[pattern]
        assert sum(s.duration for s in segments) <= total_time + 1e-9


class TestMetadataConsistency:
    @given(segments=segments_strategy, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_metadata_is_duration_weighted_mean(self, segments, seed):
        workload = generate_segmented_workload(GRAPH, segments, rng=seed)
        total = sum(s.duration for s in segments)
        expected_q = sum(s.lambda_q * s.duration for s in segments) / total
        expected_u = sum(s.lambda_u * s.duration for s in segments) / total
        assert workload.lambda_q == expected_q
        assert workload.lambda_u == expected_u
        # the empirical rates agree with the metadata within noise
        emp_q, emp_u = workload.empirical_rates()
        assert abs(emp_q * total - expected_q * total) <= tolerance(
            expected_q * total
        )
        assert abs(emp_u * total - expected_u * total) <= tolerance(
            expected_u * total
        )
