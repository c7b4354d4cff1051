"""Workload-scenario DSL: named traffic shapes beyond the paper's five.

The paper evaluates QoS under five hand-picked dynamic patterns
(Fig. 4/10/11).  Production PPR serving faces a far wider space —
diurnal cycles, flash crowds, update storms, skewed and *shifting*
source popularity, adversarial cache-busting request sequences, and
replayed real edge streams ("Approximate Personalized PageRank on
Dynamic Graphs", arXiv 1603.07796).  This module names those shapes as
first-class :class:`Scenario` values that every harness in the repo
can consume, because each one compiles down to the existing
:class:`~repro.queueing.workload.WorkloadSegment` /
:class:`~repro.queueing.workload.Workload` form.

The DSL has two equivalent surfaces:

* **builders** — ``flash_crowd(spike_factor=40)`` in Python;
* **compact text specs** — ``"flash-crowd(spike_factor=40)"`` on the
  CLI, parsed by :func:`parse_scenario`.  Grammar::

      spec    := family [ "(" kwargs ")" ]
      kwargs  := key "=" value { "," key "=" value }
      value   := int | float | quoted or bare string

A :class:`Scenario` is *declarative*: rates per segment, plus an
optional query-source sampler (skew families) and an optional explicit
edge stream (replay family).  :meth:`Scenario.compile` materializes it
into a concrete :class:`~repro.queueing.workload.Workload` for a given
graph and RNG — generation reuses ``generate_segmented_workload`` and
then rewrites query sources through the sampler, so every workload
invariant (sortedness, metadata accounting) is inherited from the one
battle-tested generator rather than re-implemented per family.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.queueing.arrivals import wikipedia_like_trace
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.workload import (
    FloatArray,
    NodeArray,
    Request,
    Workload,
    WorkloadSegment,
    _random_update_endpoints,
    dynamic_pattern_segments,
    generate_segmented_workload,
)

#: query-source sampler: (nodes, query arrival times, rng) -> sources.
#: Receiving the arrival times lets skew families shift their hot set
#: mid-window and adversarial families key off request position.
SourceSampler = Callable[
    [NodeArray, FloatArray, np.random.Generator], NodeArray
]

#: the paper's five Fig. 4 patterns, exposed as one DSL family
PAPER_PATTERNS = (
    "query-inclined",
    "query-declined",
    "update-inclined",
    "update-declined",
    "balanced",
)


@dataclass(frozen=True, slots=True)
class Scenario:
    """One named workload shape, compiled on demand.

    Attributes
    ----------
    name:
        Instance label (family plus distinguishing parameters).
    family:
        Registry key this scenario was built from.
    segments:
        Piecewise-constant rate schedule (the ``WorkloadSegment`` form
        every existing bench and simulator consumes).
    description:
        One-line human summary for report cards.
    source_sampler:
        Optional query-source rewrite (uniform when None).
    edge_stream:
        Optional explicit update stream replayed over the window
        (SNAP-style edge list order preserved; ``toggle`` semantics so
        repeated pairs stay applicable).  Overrides rate-generated
        updates.
    synthesize_stream:
        With ``edge_stream`` None, draw this many synthetic stream
        edges at compile time (used when no real trace file is at
        hand; the *timing* burstiness is what the family exercises).
    stream_burst:
        Burst factor of the stream's arrival process
        (:func:`~repro.queueing.arrivals.wikipedia_like_trace`).
    epsilon_r:
        Suggested Seed reorder budget for replays of this scenario.
    deadline_s:
        Per-query SLO deadline in virtual seconds (report cards score
        p50/p99 against it; None = no deadline).
    """

    name: str
    family: str
    segments: tuple[WorkloadSegment, ...]
    description: str = ""
    source_sampler: SourceSampler | None = None
    edge_stream: tuple[tuple[int, int], ...] | None = None
    synthesize_stream: int = 0
    stream_burst: float = 4.0
    epsilon_r: float = 0.0
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError(f"scenario {self.name!r} has no segments")
        if any(s.duration <= 0 for s in self.segments):
            raise ValueError("segment durations must be positive")

    @property
    def t_end(self) -> float:
        return sum(s.duration for s in self.segments)

    # ------------------------------------------------------------------
    def compile(
        self,
        graph: DynamicGraph,
        rng: np.random.Generator | int | None = None,
    ) -> Workload:
        """Materialize this scenario into a workload over ``graph``."""
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        workload = generate_segmented_workload(
            graph, list(self.segments), rng
        )
        requests = list(workload.requests)
        t_end = workload.t_end
        lambda_u = workload.lambda_u

        stream = self.edge_stream
        if stream is None and self.synthesize_stream > 0:
            nodes = np.fromiter(
                graph.nodes(), dtype=np.int64, count=graph.num_nodes
            )
            heads, tails = _random_update_endpoints(
                self.synthesize_stream, nodes, rng
            )
            stream = tuple(
                (int(u), int(v)) for u, v in zip(heads, tails)
            )
        if stream is not None:
            # replace rate-generated updates with the replayed stream,
            # arriving on a bursty (real-log-like) clock
            requests = [r for r in requests if r.kind == QUERY]
            rate = max(len(stream) / t_end, 1e-9)
            times = wikipedia_like_trace(
                rate, t_end, rng, burst_factor=self.stream_burst
            )
            count = min(times.size, len(stream))
            for t, (u, v) in zip(times[:count], stream[:count]):
                requests.append(
                    Request(float(t), UPDATE, update=EdgeUpdate(u, v))
                )
            lambda_u = count / t_end if t_end > 0 else 0.0

        if self.source_sampler is not None:
            nodes = np.fromiter(
                graph.nodes(), dtype=np.int64, count=graph.num_nodes
            )
            query_positions = [
                i for i, r in enumerate(requests) if r.kind == QUERY
            ]
            arrivals = np.asarray(
                [requests[i].arrival for i in query_positions],
                dtype=np.float64,
            )
            sources = self.source_sampler(nodes, arrivals, rng)
            if sources.shape != arrivals.shape:
                raise ValueError(
                    f"source sampler returned {sources.shape}, "
                    f"expected {arrivals.shape}"
                )
            for i, s in zip(query_positions, sources):
                requests[i] = Request(
                    requests[i].arrival, QUERY, source=int(s)
                )

        requests.sort(key=lambda r: r.arrival)
        return Workload(requests, t_end, workload.lambda_q, lambda_u)


# ----------------------------------------------------------------------
# source samplers
# ----------------------------------------------------------------------
def zipf_sampler(
    exponent: float, shift_at_s: float | None = None
) -> SourceSampler:
    """Zipf-skewed sources; optionally re-rank the hot set mid-window.

    Node popularity follows rank^(-exponent) over a random permutation
    of the node set.  With ``shift_at_s`` set, queries arriving after
    that time draw from a *second* independent permutation — the
    shifting-hot-set pattern that invalidates any cache warmed on the
    first regime.
    """
    if exponent <= 0:
        raise ValueError("exponent must be positive")

    def sample(
        nodes: NodeArray, arrivals: FloatArray, rng: np.random.Generator
    ) -> NodeArray:
        n = nodes.size
        weights = np.arange(1, n + 1, dtype=np.float64) ** (-exponent)
        probs = weights / weights.sum()
        ranks = rng.choice(n, size=arrivals.size, p=probs)
        perm_a = rng.permutation(n)
        if shift_at_s is None:
            picked = perm_a[ranks]
        else:
            perm_b = rng.permutation(n)
            picked = np.where(
                arrivals < shift_at_s, perm_a[ranks], perm_b[ranks]
            )
        return np.asarray(nodes[picked], dtype=np.int64)

    return sample


def cache_buster_sampler() -> SourceSampler:
    """Adversarial round-robin over every node, in a fixed shuffle.

    The worst case for any LRU-flavored result cache whose capacity is
    below the node count: by the time a source repeats, the cycle has
    pushed its entry out, so the steady-state hit rate pins to ~0 while
    a popularity-skewed stream of the same rate would hit constantly.
    """

    def sample(
        nodes: NodeArray, arrivals: FloatArray, rng: np.random.Generator
    ) -> NodeArray:
        order = rng.permutation(nodes)
        idx = np.arange(arrivals.size, dtype=np.int64) % nodes.size
        return np.asarray(order[idx], dtype=np.int64)

    return sample


# ----------------------------------------------------------------------
# family builders
# ----------------------------------------------------------------------
def diurnal(
    t_end: float = 24.0,
    lambda_q: float = 22.0,
    lambda_u: float = 5.0,
    cycles: float = 2.0,
    phases: int = 12,
    amplitude: float = 0.8,
) -> Scenario:
    """Sinusoidal day/night cycle; update traffic peaks off-hours."""
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must lie in [0, 1)")
    if phases < 2:
        raise ValueError("need at least two phases")
    segments = []
    for i in range(phases):
        frac = (i + 0.5) / phases
        wave = math.sin(2.0 * math.pi * cycles * frac)
        segments.append(
            WorkloadSegment(
                t_end / phases,
                lambda_q * (1.0 + amplitude * wave),
                lambda_u * (1.0 - amplitude * wave),
            )
        )
    return Scenario(
        name=f"diurnal(cycles={cycles:g})",
        family="diurnal",
        segments=tuple(segments),
        description="sinusoidal day/night rate cycle, updates off-peak",
        deadline_s=0.5,
    )


def flash_crowd(
    t_end: float = 24.0,
    lambda_q: float = 10.0,
    lambda_u: float = 3.0,
    spike_factor: float = 20.0,
    spike_at: float = 0.5,
    spike_width: float = 0.125,
) -> Scenario:
    """A 10-100x query spike in an otherwise calm window."""
    if spike_factor <= 1.0:
        raise ValueError("spike_factor must exceed 1")
    if not 0.0 < spike_at < 1.0 or not 0.0 < spike_width < 1.0:
        raise ValueError("spike_at and spike_width must lie in (0, 1)")
    pre = spike_at * t_end
    width = min(spike_width * t_end, t_end - pre - 1e-9)
    post = t_end - pre - width
    segments = [
        WorkloadSegment(pre, lambda_q, lambda_u),
        WorkloadSegment(width, lambda_q * spike_factor, lambda_u),
    ]
    if post > 0:
        segments.append(WorkloadSegment(post, lambda_q, lambda_u))
    return Scenario(
        name=f"flash-crowd(x{spike_factor:g})",
        family="flash-crowd",
        segments=tuple(segments),
        description=f"{spike_factor:g}x query spike at t={pre:g}s",
        deadline_s=0.5,
    )


def update_storm(
    t_end: float = 24.0,
    lambda_q: float = 6.0,
    lambda_u: float = 3.0,
    storm_factor: float = 25.0,
    storm_at: float = 0.4,
    storm_width: float = 0.2,
    epsilon_r: float = 0.3,
) -> Scenario:
    """A burst of edge updates that floods the write path / Seed queue."""
    if storm_factor <= 1.0:
        raise ValueError("storm_factor must exceed 1")
    if not 0.0 < storm_at < 1.0 or not 0.0 < storm_width < 1.0:
        raise ValueError("storm_at and storm_width must lie in (0, 1)")
    pre = storm_at * t_end
    width = min(storm_width * t_end, t_end - pre - 1e-9)
    post = t_end - pre - width
    segments = [
        WorkloadSegment(pre, lambda_q, lambda_u),
        WorkloadSegment(width, lambda_q, lambda_u * storm_factor),
    ]
    if post > 0:
        segments.append(WorkloadSegment(post, lambda_q, lambda_u))
    return Scenario(
        name=f"update-storm(x{storm_factor:g})",
        family="update-storm",
        segments=tuple(segments),
        description=f"{storm_factor:g}x update storm at t={pre:g}s",
        epsilon_r=epsilon_r,
        deadline_s=0.5,
    )


def zipf_hotset(
    t_end: float = 24.0,
    lambda_q: float = 20.0,
    lambda_u: float = 3.0,
    exponent: float = 1.1,
    shift_at: float = 0.5,
) -> Scenario:
    """Zipf source skew whose hot set is re-drawn mid-window."""
    if not 0.0 < shift_at < 1.0:
        raise ValueError("shift_at must lie in (0, 1)")
    return Scenario(
        name=f"zipf-hotset(s={exponent:g})",
        family="zipf-hotset",
        segments=(WorkloadSegment(t_end, lambda_q, lambda_u),),
        description=(
            f"Zipf({exponent:g}) sources, hot set shifts at "
            f"t={shift_at * t_end:g}s"
        ),
        source_sampler=zipf_sampler(exponent, shift_at * t_end),
        deadline_s=0.5,
    )


def cache_buster(
    t_end: float = 24.0,
    lambda_q: float = 20.0,
    lambda_u: float = 1.0,
) -> Scenario:
    """Adversarial source cycle defeating LRU-style result caches."""
    return Scenario(
        name="cache-buster",
        family="cache-buster",
        segments=(WorkloadSegment(t_end, lambda_q, lambda_u),),
        description="round-robin source cycle longer than any cache",
        source_sampler=cache_buster_sampler(),
        deadline_s=0.5,
    )


def edge_replay(
    t_end: float = 24.0,
    lambda_q: float = 8.0,
    path: str | os.PathLike[str] | None = None,
    edges: Sequence[tuple[int, int]] | None = None,
    stream_size: int = 120,
    burst_factor: float = 4.0,
) -> Scenario:
    """Replay a SNAP-style edge stream as the update traffic.

    ``path`` loads a whitespace-separated ``u v`` edge list (comment
    lines ``#``-prefixed, the SNAP distribution format) preserving the
    stream *order*; ``edges`` passes one in-process.  With neither, a
    synthetic stream of ``stream_size`` edges is drawn at compile time
    — the family still exercises what matters: updates arriving in a
    fixed replayed order on a bursty real-log-like clock rather than
    as a homogeneous Poisson process.
    """
    if path is not None and edges is not None:
        raise ValueError("pass either path or edges, not both")
    stream: tuple[tuple[int, int], ...] | None = None
    if path is not None:
        stream = tuple(load_edge_stream(path))
    elif edges is not None:
        stream = tuple((int(u), int(v)) for u, v in edges)
    return Scenario(
        name="edge-replay",
        family="edge-replay",
        segments=(WorkloadSegment(t_end, lambda_q, 0.0),),
        description="SNAP-style ordered edge stream on a bursty clock",
        edge_stream=stream,
        synthesize_stream=0 if stream is not None else stream_size,
        stream_burst=burst_factor,
        deadline_s=0.5,
    )


def paper_pattern(
    pattern: str = "query-inclined",
    t_end: float = 24.0,
    seg_seed: int = 0,
) -> Scenario:
    """One of the paper's five Fig. 4 evolving-rate patterns.

    Kept in the registry as the differential anchor: scenarios the
    existing benches already replay must keep producing the same
    shapes through the new machinery.
    """
    segments = dynamic_pattern_segments(pattern, t_end, rng=seg_seed)
    return Scenario(
        name=f"paper:{pattern}",
        family="paper-pattern",
        segments=tuple(segments),
        description=f"Fig. 4 pattern {pattern!r}",
        deadline_s=0.5,
    )


def load_edge_stream(
    path: str | os.PathLike[str],
) -> list[tuple[int, int]]:
    """Read a SNAP-style edge list preserving stream order."""
    stream: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(
                    f"{path}:{line_no}: expected 'u v', got {line!r}"
                )
            stream.append((int(parts[0]), int(parts[1])))
    return stream


# ----------------------------------------------------------------------
# registry + text-spec parsing
# ----------------------------------------------------------------------
FAMILIES: dict[str, Callable[..., Scenario]] = {
    "diurnal": diurnal,
    "flash-crowd": flash_crowd,
    "update-storm": update_storm,
    "zipf-hotset": zipf_hotset,
    "cache-buster": cache_buster,
    "edge-replay": edge_replay,
    "paper-pattern": paper_pattern,
}


def build_scenario(spec: Mapping[str, object]) -> Scenario:
    """Build a scenario from a ``{"family": ..., **kwargs}`` mapping."""
    if "family" not in spec:
        raise ValueError("scenario spec needs a 'family' key")
    family = str(spec["family"])
    if family not in FAMILIES:
        raise ValueError(
            f"unknown scenario family {family!r}; "
            f"choose from {sorted(FAMILIES)}"
        )
    kwargs = {k: v for k, v in spec.items() if k != "family"}
    return FAMILIES[family](**kwargs)


def _parse_value(text: str) -> object:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_scenario(text: str) -> Scenario:
    """Parse the compact text form, e.g. ``flash-crowd(spike_factor=40)``.

    Grammar (module docstring): a family name, optionally followed by a
    parenthesized comma-separated ``key=value`` list.  Values parse as
    int, then float, then (optionally quoted) string.
    """
    text = text.strip()
    if "(" not in text:
        return build_scenario({"family": text})
    if not text.endswith(")"):
        raise ValueError(f"unbalanced parentheses in scenario spec {text!r}")
    family, _, arg_text = text[:-1].partition("(")
    spec: dict[str, object] = {"family": family.strip()}
    arg_text = arg_text.strip()
    if arg_text:
        for item in arg_text.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(
                    f"scenario argument {item.strip()!r} is not key=value"
                )
            spec[key.strip()] = _parse_value(value)
    return build_scenario(spec)


__all__ = [
    "FAMILIES",
    "PAPER_PATTERNS",
    "Scenario",
    "SourceSampler",
    "build_scenario",
    "cache_buster",
    "cache_buster_sampler",
    "diurnal",
    "edge_replay",
    "flash_crowd",
    "load_edge_stream",
    "paper_pattern",
    "parse_scenario",
    "update_storm",
    "zipf_hotset",
    "zipf_sampler",
]
