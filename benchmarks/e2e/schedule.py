"""Seeded traffic schedules: arrival times, sources, edge toggles.

Everything the server will be asked is drawn here, from ``--seed``,
with numpy only; the server receives nothing but the HTTP requests.
Times are seconds relative to the start of the first measured window,
so the warm-up occupies ``[-warmup_s, 0)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from benchmarks.e2e.spec import CLOSED, Workload

ZIPF_EXPONENT = 1.1
#: which nodes are the popular ones is the same on every seed: the seed
#: draws the requests, not the hot set (sources differ in query cost)
ZIPF_PERMUTATION_SEED = 1
#: share of updates that toggle a pair used earlier in the schedule, so
#: deletes and re-inserts are exercised as well as first inserts
RETOGGLE_SHARE = 0.5
#: sources pre-drawn per closed-loop client and second of schedule;
#: far above any rate one connection reaches, the client wraps around
CLOSED_SOURCES_PER_S = 2_000


@dataclass(frozen=True, slots=True)
class Schedule:
    """One run's inputs.  Open-loop arrays are sorted by due time."""

    query_due: np.ndarray  # float64, empty on a closed loop
    query_source: np.ndarray  # int64, parallel to query_due
    update_due: np.ndarray  # float64
    update_u: np.ndarray  # int64
    update_v: np.ndarray  # int64
    #: closed loop: one row of sources per client connection
    client_sources: np.ndarray  # int64, shape (clients, k)

    def to_bytes(self) -> bytes:
        return b"".join(
            np.ascontiguousarray(a).tobytes()
            for a in (
                self.query_due, self.query_source, self.update_due,
                self.update_u, self.update_v, self.client_sources,
            )
        )


def _arrivals(
    rng: np.random.Generator, rate: float, edges: list[float]
) -> np.ndarray:
    """Poisson arrivals conditioned on their count in each interval.

    Given its count, a Poisson process places its arrivals uniformly, so
    each interval ``edges[i]..edges[i+1]`` gets exactly ``rate * length``
    (rounded) uniform arrivals.  Every seed then offers the same load to
    every window and only the burst pattern differs — the seed-to-seed
    spread of a latency is the system's, not the arrival count's.
    """
    parts = [
        np.sort(rng.uniform(lo, hi, size=round(rate * (hi - lo))))
        for lo, hi in zip(edges, edges[1:])
    ]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)


def _sources(
    rng: np.random.Generator, kind: str, nodes: int, size: int
) -> np.ndarray:
    if kind == "uniform":
        return rng.integers(0, nodes, size=size, dtype=np.int64)
    if kind == "zipf":
        weights = np.arange(1, nodes + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        ranks = rng.choice(nodes, size=size, p=weights / weights.sum())
        by_rank = np.random.default_rng(ZIPF_PERMUTATION_SEED).permutation(nodes)
        return by_rank.astype(np.int64)[ranks]
    raise ValueError(f"unknown source distribution {kind!r}")


def _toggles(
    rng: np.random.Generator, nodes: int, size: int
) -> tuple[np.ndarray, np.ndarray]:
    u = rng.integers(0, nodes, size=size, dtype=np.int64)
    v = (u + rng.integers(1, nodes, size=size, dtype=np.int64)) % nodes
    again = rng.random(size) < RETOGGLE_SHARE
    earlier = rng.random(size)
    for i in range(1, size):
        if again[i]:
            j = int(earlier[i] * i)
            u[i], v[i] = u[j], v[j]
    return u, v


def build_schedule(
    workload: Workload,
    seed: int,
    nodes: int,
    warmup_s: float,
    window_s: float,
    windows: int,
) -> Schedule:
    """Draw the schedule of one run; equal arguments give equal bytes."""

    def stream(k: int) -> np.random.Generator:
        # one independent stream per draw, so changing a rate leaves
        # the other draws of the same seed untouched
        return np.random.default_rng([seed, k])

    edges = [-warmup_s] + [k * window_s for k in range(windows + 1)]
    update_due = _arrivals(stream(2), workload.lambda_u, edges)
    update_u, update_v = _toggles(stream(3), nodes, len(update_due))
    if workload.loop == CLOSED:
        per_client = int((edges[-1] - edges[0]) * CLOSED_SOURCES_PER_S)
        query_due = np.empty(0, dtype=np.float64)
        query_source = np.empty(0, dtype=np.int64)
        client_sources = _sources(
            stream(1), workload.sources, nodes, workload.clients * per_client
        ).reshape(workload.clients, per_client)
    else:
        query_due = _arrivals(stream(0), workload.lambda_q, edges)
        query_source = _sources(
            stream(1), workload.sources, nodes, len(query_due)
        )
        client_sources = np.empty((0, 0), dtype=np.int64)
    return Schedule(
        query_due, query_source, update_due, update_u, update_v, client_sources
    )
