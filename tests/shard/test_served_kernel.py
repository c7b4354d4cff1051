"""The fleet answers with the kernel every other caller measures.

A worker builds its algorithm from its ``ShardSpec`` with
``build_algorithm``; the same call outside the fleet (virtual time,
Quota calibration, the paper benches) must give the served answer bit
for bit.
"""

import pytest

from repro.graph.generators import barabasi_albert_graph
from repro.obs.metrics import MetricsRegistry
from repro.ppr.registry import build_algorithm
from repro.shard.image import graph_image
from repro.shard.manager import ShardManager
from repro.shard.messages import ShardSpec
from repro.shard.worker import build_graph, serialize_result


@pytest.mark.parametrize("algorithm", ["FORA", "FORA+inc"])
def test_served_answer_is_the_built_algorithms(algorithm):
    image = graph_image(barabasi_albert_graph(150, attach=3, seed=2))
    spec = ShardSpec(
        shard_id=0,
        num_shards=1,
        num_nodes=image.num_nodes,
        edges=image.edges,
        algorithm=algorithm,
        walk_cap=400,
        seed=3,
    )
    source = 7
    direct = build_algorithm(
        spec.algorithm, build_graph(spec), spec.walk_cap, seed=spec.seed
    ).query(source)
    with ShardManager(
        image,
        1,
        backend="inproc",
        algorithm=spec.algorithm,
        walk_cap=spec.walk_cap,
        seed=spec.seed,
        metrics=MetricsRegistry(),
    ) as manager:
        served = manager.query_sync(source, top_k=None, timeout_s=60.0)
    assert served.ok
    assert served.values == serialize_result(direct, None)
