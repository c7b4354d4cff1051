"""Direct-call probe: what the kernel and the runtime cost with no fleet.

Run as a supervised child: ``python benchmarks/e2e/probe.py --dataset
lj --algorithm FORA --epsilon-r 0 --seed 0 --calls 200``.  It builds
graph and algorithm exactly as ``repro.shard.worker.ShardServer`` does
from a ``ShardSpec`` (same edge order, walk cap, seed and engine as the
``ShardManager`` that ``repro serve`` builds), then times

* ``--calls`` direct ``algorithm.query`` calls, with the public
  ``algorithm.timers`` split into push and walk phase;
* the same queries through an idle ``ServingRuntime`` (``submit`` ->
  ``on_complete``), each paired with one more direct call: the median
  difference is the runtime's fixed hop;
* ``--calls`` direct ``algorithm.apply_update`` calls, with the
  "Index Update" timer and the walks resampled per update.
  ``repro.ppr.incremental`` counts those into the process-global
  registry, which the per-shard ``/metrics`` snapshot does not export,
  so this probe is the only place the number can be read.

Prints one JSON object of metrics on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from statistics import median
from time import perf_counter

import numpy as np

from repro.evaluation.datasets import get_dataset
from repro.evaluation.runner import build_algorithm
from repro.graph.updates import EdgeUpdate
from repro.obs import MetricsRegistry, get_metrics
from repro.queueing.workload import QUERY, Request
from repro.serving.runtime import ServedRequest, ServingRuntime
from repro.shard.messages import ShardSpec
from repro.shard.worker import build_graph


def _ms(seconds: float) -> float:
    return seconds * 1e3


def probe(
    dataset: str, algorithm_name: str, epsilon_r: float, seed: int, calls: int
) -> dict[str, float]:
    dataset_spec = get_dataset(dataset)
    source_graph = dataset_spec.build(seed=0)
    spec = ShardSpec(
        shard_id=0,
        num_shards=1,
        num_nodes=source_graph.num_nodes,
        edges=tuple(sorted(source_graph.edges())),
        algorithm=algorithm_name,
        walk_cap=dataset_spec.walk_cap,
        epsilon_r=epsilon_r,
    )
    graph = build_graph(spec)
    algorithm = build_algorithm(
        spec.algorithm, graph, spec.walk_cap, seed=spec.seed, engine=spec.engine
    )
    rng = np.random.default_rng([seed, 7])
    nodes = graph.num_nodes
    sources = rng.integers(0, nodes, size=calls).tolist()
    for source in sources[:10]:  # warm caches and lazy set-up
        algorithm.query(source)

    algorithm.timers.reset()
    direct_s = []
    for source in sources:
        start = perf_counter()
        algorithm.query(source)
        direct_s.append(perf_counter() - start)
    push_ms = _ms(algorithm.timers.mean("Forward Push"))
    walk_ms = _ms(algorithm.timers.mean("Random Walk"))

    completed = threading.Event()

    def on_complete(record: ServedRequest) -> None:
        if record.request.kind == QUERY:
            completed.set()

    runtime = ServingRuntime(
        algorithm,
        workers=spec.workers,
        epsilon_r=spec.epsilon_r,
        queue_capacity=spec.queue_capacity,
        on_complete=on_complete,
        metrics=MetricsRegistry(),
    )
    # each submit is paired with a direct call made just before it, so a
    # host that changes speed between two passes cannot make the hop negative
    hop_s = []
    with runtime:
        for tag, source in enumerate(sources):
            completed.clear()
            start = perf_counter()
            algorithm.query(source)
            submitted = perf_counter()
            runtime.submit(Request(submitted, QUERY, source=source, tag=tag))
            if not completed.wait(30.0):
                raise RuntimeError(f"runtime never completed source {source}")
            hop_s.append(perf_counter() - submitted - (submitted - start))

    registry = get_metrics()
    resampled = registry.counter("index.walks_resampled")
    resampled_before = resampled.value
    algorithm.timers.reset()
    u = rng.integers(0, nodes, size=calls)
    v = (u + rng.integers(1, nodes, size=calls)) % nodes
    update_s = []
    for a, b in zip(u.tolist(), v.tolist()):
        start = perf_counter()
        algorithm.apply_update(EdgeUpdate(a, b))
        update_s.append(perf_counter() - start)

    return {
        "serving.hop_p50_ms": _ms(median(hop_s)),
        "ppr.query_direct_p50_ms": _ms(median(direct_s)),
        "ppr.update_direct_p50_ms": _ms(median(update_s)),
        "ppr.push_mean_ms": push_ms,
        "ppr.walk_mean_ms": walk_ms,
        "ppr.index_update_mean_ms": _ms(algorithm.timers.mean("Index Update")),
        "index.walks_resampled_per_update": (
            (resampled.value - resampled_before) / calls
        ),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/probe.py")
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--algorithm", required=True)
    parser.add_argument("--epsilon-r", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--calls", type=int, default=200)
    args = parser.parse_args(argv)
    metrics = probe(
        args.dataset, args.algorithm, args.epsilon_r, args.seed, args.calls
    )
    print(json.dumps(metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
