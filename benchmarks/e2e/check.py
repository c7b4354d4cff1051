"""Output check: are the served answers right for the graph as updated?

After the last window the fleet is quiesced (every shard applied every
broadcast, nothing deferred), the acknowledged updates are replayed in
version order onto a harness-side copy of the graph, and sampled
``/query`` answers are compared with power-iteration ground truth.
"""

from __future__ import annotations

import asyncio
import json
from collections.abc import Sequence

import numpy as np

from benchmarks.e2e import scrape
from benchmarks.e2e.loadgen import (
    UPDATE, Sample, exchange, get_json, parse_reply, query_request,
)
from benchmarks.e2e.spec import DATASET_NODES

#: max-abs error allowed against ``ppr_exact`` (prototype worst case
#: 0.0023 for FORA / FORA+inc); cached replies may add their epsilon_c
TOLERANCE = 0.01
SAMPLED_ANSWERS = 20
QUIESCE_TIMEOUT_S = 15.0


class CheckFailed(Exception):
    """The served output is wrong; the message names the offender."""


async def wait_quiesced(port: int) -> dict[str, object]:
    """Poll ``/healthz`` until the fleet has settled; returns the body."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + QUIESCE_TIMEOUT_S
    while True:
        status, health = await get_json(port, "/healthz")
        if status == 200 and scrape.quiesced(health):
            return health
        if loop.time() > deadline:
            raise CheckFailed(f"fleet did not quiesce: {json.dumps(health)}")
        await asyncio.sleep(0.05)


def acked_updates(samples: Sequence[Sample]) -> list[tuple[int, int, int]]:
    """``(version, u, v)`` of every acknowledged update, in version order."""
    return sorted(
        (s.version, s.u, s.v)
        for s in samples
        if s.kind == UPDATE and s.status == 200
    )


async def verify_answers(
    port: int,
    dataset: str,
    updates: Sequence[tuple[int, int, int]],
    health: dict[str, object],
    sources: Sequence[int],
    cache_epsilon: float,
) -> float:
    """Compare sampled answers with ground truth; returns the worst error.

    ``updates`` are the acknowledged ``(version, u, v)`` toggles; the
    harness is the only writer, so the versions must be exactly ``1..N``.
    """
    from repro.evaluation.datasets import get_dataset
    from repro.graph.updates import EdgeUpdate
    from repro.ppr.power_iteration import ppr_exact

    graph = get_dataset(dataset).build(seed=0)
    nodes = graph.num_nodes
    if nodes != DATASET_NODES[dataset]:
        raise CheckFailed(
            f"{dataset} has {nodes} nodes, spec says {DATASET_NODES[dataset]}"
        )
    versions = [version for version, _, _ in updates]
    fabric_version = health["fabric_version"]
    if versions != list(range(1, len(updates) + 1)) or (
        fabric_version != len(updates)
    ):
        raise CheckFailed(
            f"acknowledged versions are not 1..{fabric_version}: "
            f"{len(updates)} acks, first gap near "
            f"{next((i for i, v in enumerate(versions, 1) if i != v), None)}"
        )
    base_version = graph.version
    for _, u, v in updates:
        EdgeUpdate(u, v).apply(graph)
    final_version = base_version + len(updates)

    worst = 0.0
    for source in sources:
        _, raw = await exchange(port, query_request(source, nodes, None))
        status, body = parse_reply(raw)
        if status != 200:
            raise CheckFailed(f"check query source={source} got {status}")
        reply = json.loads(body)
        cached = bool(reply["cached"])
        if not cached and reply["version"] != final_version:
            raise CheckFailed(
                f"source={source} answered at graph version "
                f"{reply['version']}, fleet is at {final_version}"
            )
        estimate = np.zeros(nodes, dtype=np.float64)
        for node, value in reply["values"]:
            estimate[int(node)] = value
        exact = ppr_exact(graph, source)
        truth = np.array([exact.get(node) for node in range(nodes)])
        error = float(np.abs(estimate - truth).max())
        allowed = TOLERANCE + (cache_epsilon if cached else 0.0)
        if error > allowed:
            raise CheckFailed(
                f"source={source} version={reply['version']} "
                f"cached={cached}: max-abs error {error:.5f} > {allowed}"
            )
        worst = max(worst, error)
    return worst
