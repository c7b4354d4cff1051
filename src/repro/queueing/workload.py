"""Workload generation: interleaved query/update request timelines.

Matches Section VIII-B/C of the paper: queries and updates arrive as
two independent processes over a window T; query sources are uniform
over the current node set; updates pick two random nodes (toggle
semantics).  Also provides the Figure 4 dynamic rate patterns
(query-inclined, balanced, update-inclined, update-declined,
query-declined), built as piecewise-constant rate segments whose
durations follow the paper's exponential(mean 10 s) phase lengths.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.queueing.arrivals import ArrivalProcess, PoissonArrivals
from repro.queueing.kinds import QUERY, UPDATE

FloatArray = NDArray[np.float64]
NodeArray = NDArray[np.int64]


@dataclass(frozen=True, slots=True)
class Request:
    """One arrival: an SSPPR query (source node) or an edge update.

    ``tag`` is an optional caller-chosen correlation object carried
    through serving untouched — a shard worker (:mod:`repro.shard`)
    tags each query with the command that submitted it, to answer
    that command when the query completes.  It never affects
    scheduling, equality of generated workloads, or trace round-trips
    (traces neither persist nor restore tags).
    """

    arrival: float
    kind: str
    source: int | None = None
    update: EdgeUpdate | None = None
    tag: object = None

    def __post_init__(self) -> None:
        if self.kind == QUERY:
            if self.source is None:
                raise ValueError("query request needs a source node")
        elif self.kind == UPDATE:
            if self.update is None:
                raise ValueError("update request needs an EdgeUpdate")
        else:
            raise ValueError(f"unknown request kind {self.kind!r}")


@dataclass(slots=True)
class Workload:
    """A time-ordered request sequence plus its generation metadata."""

    requests: list[Request]
    t_end: float
    lambda_q: float
    lambda_u: float

    def __post_init__(self) -> None:
        arrivals = [r.arrival for r in self.requests]
        if arrivals != sorted(arrivals):
            self.requests = sorted(self.requests, key=lambda r: r.arrival)

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, index: int) -> Request:
        return self.requests[index]

    @property
    def num_queries(self) -> int:
        return sum(1 for r in self.requests if r.kind == QUERY)

    @property
    def num_updates(self) -> int:
        return sum(1 for r in self.requests if r.kind == UPDATE)

    def empirical_rates(self) -> tuple[float, float]:
        """Observed (lambda_q, lambda_u) over the window."""
        if self.t_end <= 0:
            return 0.0, 0.0
        return self.num_queries / self.t_end, self.num_updates / self.t_end


def _random_queries(
    times: FloatArray, nodes: NodeArray, rng: np.random.Generator
) -> list[Request]:
    sources = rng.choice(nodes, size=times.size)
    return [
        Request(float(t), QUERY, source=int(s)) for t, s in zip(times, sources)
    ]


def _random_update_endpoints(
    count: int, nodes: NodeArray, rng: np.random.Generator
) -> tuple[NodeArray, NodeArray]:
    """Draw ``count`` uniform ordered pairs of *distinct* nodes, in bulk.

    Equivalent in distribution to ``count`` sequential
    ``rng.choice(nodes, size=2, replace=False)`` draws — the tail is
    uniform over the node set, the head uniform over the remaining
    nodes — but O(count) instead of O(count * len(nodes)): the old
    per-update ``choice(..., replace=False)`` built an n-sized
    probability scratch per draw, making update-storm generation
    O(m * n) on large node sets.  Self-loops from the independent bulk
    draws are rejected and redrawn (expected O(1) rounds: the loop
    retains 1/n of the pairs per round).
    """
    u = nodes[rng.integers(0, nodes.size, size=count)]
    v = nodes[rng.integers(0, nodes.size, size=count)]
    collided = u == v
    while bool(np.any(collided)):
        v[collided] = nodes[
            rng.integers(0, nodes.size, size=int(np.sum(collided)))
        ]
        collided = u == v
    return u, v


def _random_updates(
    times: FloatArray, nodes: NodeArray, rng: np.random.Generator
) -> list[Request]:
    if times.size == 0:
        return []
    heads, tails = _random_update_endpoints(times.size, nodes, rng)
    return [
        Request(float(t), UPDATE, update=EdgeUpdate(int(u), int(v)))
        for t, u, v in zip(times, heads, tails)
    ]


def generate_workload(
    graph: DynamicGraph,
    lambda_q: float,
    lambda_u: float,
    t_end: float,
    rng: np.random.Generator | int | None = None,
    query_process: ArrivalProcess | None = None,
    update_process: ArrivalProcess | None = None,
    query_times: FloatArray | None = None,
    update_times: FloatArray | None = None,
) -> Workload:
    """Generate a mixed workload over [0, t_end).

    Parameters
    ----------
    graph:
        Supplies the node population for query sources and update
        endpoints (the initial node set, as in the paper).
    lambda_q, lambda_u:
        Mean arrival rates (used by the default Poisson processes and
        recorded in the workload metadata).  Either may be zero to
        produce a pure stream of the other kind.
    rng:
        Numpy generator or seed.
    query_process, update_process:
        Alternative :class:`ArrivalProcess` instances (Table III).  A
        supplied process is always honored, even when the matching
        ``lambda_*`` hint is 0 (the hint is a metadata default, not a
        gate — previously a ``TraceArrivals`` passed alongside a
        placeholder rate of 0 silently yielded an empty stream); when
        the hint is 0 the recorded metadata rate is the *empirical*
        rate of the generated stream instead.
    query_times, update_times:
        Explicit timestamp arrays; override the processes entirely
        (used for trace replay).
    """
    if lambda_q < 0 or lambda_u < 0:
        raise ValueError("arrival rates must be non-negative")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    nodes = np.fromiter(graph.nodes(), dtype=np.int64, count=graph.num_nodes)
    if nodes.size < 2:
        raise ValueError("workload generation needs at least two nodes")

    def empirical(times: FloatArray) -> float:
        return times.size / t_end if t_end > 0 else 0.0

    if query_times is None:
        if query_process is not None:
            query_times = query_process.generate(t_end, rng)
            if lambda_q == 0:
                lambda_q = empirical(query_times)
        elif lambda_q > 0:
            query_times = PoissonArrivals(lambda_q).generate(t_end, rng)
        else:
            query_times = np.empty(0, dtype=np.float64)
    if update_times is None:
        if update_process is not None:
            update_times = update_process.generate(t_end, rng)
            if lambda_u == 0:
                lambda_u = empirical(update_times)
        elif lambda_u > 0:
            update_times = PoissonArrivals(lambda_u).generate(t_end, rng)
        else:
            update_times = np.empty(0, dtype=np.float64)

    requests = _random_queries(query_times, nodes, rng)
    requests += _random_updates(update_times, nodes, rng)
    requests.sort(key=lambda r: r.arrival)
    return Workload(requests, t_end, lambda_q, lambda_u)


# ----------------------------------------------------------------------
# Dynamic rate patterns (Figure 4 / Figure 10 / Figure 11)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class WorkloadSegment:
    """A stretch of time with constant arrival rates."""

    duration: float
    lambda_q: float
    lambda_u: float


def dynamic_pattern_segments(
    pattern: str,
    total_time: float,
    rng: np.random.Generator | int | None = None,
    mean_phase: float = 10.0,
    q_range: tuple[float, float] = (10.0, 30.0),
    u_range: tuple[float, float] = (10.0, 30.0),
    q_fixed: float = 5.0,
    u_fixed: float = 5.0,
) -> list[WorkloadSegment]:
    """Segments for one of the paper's five evolving-workload patterns.

    Patterns (Section VIII-D):

    * ``query-inclined``  — lambda_q ramps q_range[0] -> q_range[1], lambda_u = u_fixed
    * ``query-declined``  — lambda_q ramps q_range[1] -> q_range[0], lambda_u = u_fixed
    * ``update-inclined`` — lambda_u ramps u_range[0] -> u_range[1], lambda_q = q_fixed
    * ``update-declined`` — lambda_u ramps u_range[1] -> u_range[0], lambda_q = q_fixed
    * ``balanced``        — both ramp from range[0] to the midpoint

    Phase durations are exponential with mean ``mean_phase`` ("the
    intervals keeping stable rates follow a Poisson distribution with
    an average of 10 s").
    """
    known = (
        "query-inclined",
        "query-declined",
        "update-inclined",
        "update-declined",
        "balanced",
    )
    if pattern not in known:
        raise ValueError(f"unknown pattern {pattern!r}; choose from {known}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    durations: list[float] = []
    elapsed = 0.0
    while elapsed < total_time:
        d = float(rng.exponential(mean_phase))
        d = min(d, total_time - elapsed)
        if d <= 0:
            break
        durations.append(d)
        elapsed += d
    steps = max(len(durations), 1)

    def ramp(lo: float, hi: float, i: int) -> float:
        # a single phase has nowhere to ramp: it runs at the pattern's
        # *starting* rate (returning hi here made a short query-inclined
        # window spend its whole duration at peak rate, and a declining
        # pattern start at its end rate)
        if steps == 1:
            return lo
        return lo + (hi - lo) * i / (steps - 1)

    segments: list[WorkloadSegment] = []
    for i, duration in enumerate(durations):
        if pattern == "query-inclined":
            lq, lu = ramp(q_range[0], q_range[1], i), u_fixed
        elif pattern == "query-declined":
            lq, lu = ramp(q_range[1], q_range[0], i), u_fixed
        elif pattern == "update-inclined":
            lq, lu = q_fixed, ramp(u_range[0], u_range[1], i)
        elif pattern == "update-declined":
            lq, lu = q_fixed, ramp(u_range[1], u_range[0], i)
        else:  # balanced
            mid_q = (q_range[0] + q_range[1]) / 2
            mid_u = (u_range[0] + u_range[1]) / 2
            lq = ramp(q_range[0], mid_q, i)
            lu = ramp(u_range[0], mid_u, i)
        segments.append(WorkloadSegment(duration, lq, lu))
    return segments


def generate_segmented_workload(
    graph: DynamicGraph,
    segments: list[WorkloadSegment],
    rng: np.random.Generator | int | None = None,
) -> Workload:
    """Concatenate per-segment Poisson workloads into one timeline."""
    if not segments:
        raise ValueError("need at least one segment")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    requests: list[Request] = []
    offset = 0.0
    for segment in segments:
        piece = generate_workload(
            graph, segment.lambda_q, segment.lambda_u, segment.duration, rng
        )
        requests += [
            Request(
                r.arrival + offset, r.kind, source=r.source, update=r.update
            )
            for r in piece
        ]
        offset += segment.duration
    total_q = sum(s.lambda_q * s.duration for s in segments) / offset
    total_u = sum(s.lambda_u * s.duration for s in segments) / offset
    requests.sort(key=lambda r: r.arrival)
    return Workload(requests, offset, total_q, total_u)
