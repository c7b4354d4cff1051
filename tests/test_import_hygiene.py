"""Each process of the fleet loads what it uses, and nothing else.

The serving fleet is three processes (front door + workers).  FORA /
FORA+inc without ``--quota`` never call scipy, yet every process used
to import all of it (≈ 320 modules, ≈ 50 MB RSS, ≈ 0.5 s) because four
modules imported it at module level.  The front door is a control
plane — sockets, pipes, versions, the update log — yet it used to load
numpy, the kernels and a ``DynamicGraph`` (≈ 25 MB) to build a graph it
only forwarded; and every worker re-imported ``repro.cli`` with asyncio
and argparse as ``__mp_main__``.  Each check runs in a fresh
interpreter — ``sys.modules`` of the test process proves nothing.
"""

import os
import pathlib
import signal
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SERVING_WITHOUT_SCIPY = """
import sys
import repro.cli, repro.api.serve, repro.shard.worker
from repro.graph.generators import barabasi_albert_graph
from repro.graph.updates import EdgeUpdate
from repro.ppr.registry import build_algorithm

graph = barabasi_albert_graph(200, attach=3, seed=1)
for name in ("FORA", "FORA+inc"):
    algorithm = build_algorithm(name, graph.copy(), 500, seed=0, engine="auto")
    algorithm.query(0)
    algorithm.apply_update(EdgeUpdate(0, 150))
    assert algorithm.query(3).total_mass() > 0.99
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
"""

SCIPY_LOADS_ON_FIRST_USE = """
import sys
from repro.core.calibration import calibrated_cost_model
from repro.core.quota import QuotaController
from repro.graph.generators import barabasi_albert_graph
from repro.ppr.power_iteration import ppr_exact
from repro.ppr.registry import build_algorithm

graph = barabasi_albert_graph(120, attach=3, seed=1)
assert "scipy" not in sys.modules
exact = ppr_exact(graph, 0)
assert abs(exact.total_mass() - 1.0) < 1e-9
assert "scipy.sparse" in sys.modules

algorithm = build_algorithm("FORA", graph, 500, seed=0)
model = calibrated_cost_model(algorithm, num_queries=2, rng=1)
decision = QuotaController(model).configure(10.0, 10.0, quick=True)
assert decision.predicted_response_time > 0.0
assert "scipy.optimize" in sys.modules

speed = build_algorithm("SpeedPPR", graph, 500, seed=0, engine="auto")
assert speed.query(0).total_mass() > 0.99
"""

NUMERICS = """
def numerics_loaded():
    import sys
    return sorted(
        name for name in sys.modules
        if name.split(".")[0] in ("numpy", "scipy")
        or (name.startswith("repro.ppr.") and name != "repro.ppr.names")
        or name in ("repro.graph.digraph", "repro.evaluation.runner",
                    "repro.shard.worker")
    )
"""

# what a worker process does with its spec (spawn_main minus the pipes)
WORKER_WITHOUT_THE_HARNESS = """
import sys
from repro.graph.generators import barabasi_albert_graph
from repro.shard.messages import QueryCommand, ShardSpec, UpdateCommand
from repro.shard.worker import ShardServer

# what only --quota needs: the calibrated QuotaController and its solver
QUOTA_STACK = ("repro.core.calibration", "repro.core.quota",
               "repro.core.cost_models", "repro.core.optimizer")
HARNESS = ("repro.evaluation.runner", "repro.core.system",
           "repro.queueing.simulator") + QUOTA_STACK
graph = barabasi_albert_graph(200, attach=3, seed=1)
for name in ("FORA", "FORA+inc"):
    replies = []
    server = ShardServer(
        ShardSpec(0, 1, graph.num_nodes, list(graph.edges()), algorithm=name,
                  walk_cap=500),
        replies.append,
    )
    try:
        server.handle(UpdateCommand(1, 1, 0, 150))
        server.handle(QueryCommand(2, 3, top_k=5))
        server.runtime.drain()
    finally:
        server.runtime.stop()
    assert [r.ok for r in replies] == [True, True], replies
    loaded = [name for name in HARNESS if name in sys.modules]
    assert not loaded, loaded

# --quota is what needs the calibration stack, and still gets it
server = ShardServer(
    ShardSpec(0, 1, graph.num_nodes, list(graph.edges()), walk_cap=500,
              use_controller=True),
    replies.append,
)
server.runtime.stop()
assert server.runtime.controller is not None
missing = [name for name in QUOTA_STACK if name not in sys.modules]
assert not missing, missing
"""

# what `repro serve` does, with a live process fleet behind it
FRONT_DOOR_WITHOUT_NUMERICS = NUMERICS + """
import repro.api.serve as serve
from repro.evaluation.datasets import get_dataset

args = serve.build_parser().parse_args(
    ["--dataset", "webs", "--shards", "2", "--port", "0"]
)
manager = serve._build_manager(args, get_dataset(args.dataset))
try:
    frontdoor = serve.FrontDoor(manager, default_top_k=args.top_k)
    serve.HttpServer(frontdoor, args.host, args.port)
    assert manager.query_sync(0, top_k=3, timeout_s=60.0).ok
    assert manager.update(0, 5).acked_shards == (0, 1)
    snapshot = manager.metrics_snapshot()
    assert snapshot["manager"]["histograms"]["shard.roundtrip"]["count"] == 1
    assert len(snapshot["shards"]) == 2
finally:
    manager.stop()
assert not numerics_loaded(), numerics_loaded()[:8]
"""

CLI_LISTING_WITHOUT_NUMPY = NUMERICS + """
from repro.cli import main

assert main(["datasets"]) == 0
assert not numerics_loaded(), numerics_loaded()[:8]
"""

# a package re-exports nothing, so importing one loads only itself
# (repro.obs keeps the two metrics names benchmarks/e2e/probe.py asks it for)
PACKAGES_IMPORT_NOTHING = NUMERICS + """
import sys
import repro.analysis, repro.api, repro.baselines, repro.cache, repro.core
import repro.evaluation, repro.graph, repro.obs, repro.ppr, repro.queueing
import repro.scenarios, repro.serving, repro.shard

packages = {"repro", "repro.analysis", "repro.api", "repro.baselines",
            "repro.cache", "repro.core", "repro.evaluation", "repro.graph",
            "repro.obs", "repro.ppr", "repro.queueing", "repro.scenarios",
            "repro.serving", "repro.shard"}
loaded = {name for name in sys.modules if name.split(".")[0] == "repro"}
assert loaded == packages | {"repro.obs.metrics"}, sorted(loaded - packages)
assert not numerics_loaded(), numerics_loaded()[:8]
"""

# the graph-image builder child: dataset pairs, packed, on stdout
BUILDER_WITHOUT_NUMPY = """
import os, sys
sys.stdout = open(os.devnull, "w")
from repro.shard.image import write_image

write_image("lj", 0)
assert "numpy" not in sys.modules
"""

# a front door handed an image that is not canonical yet sorts it itself
UNSORTED_SPEC_WITHOUT_NUMERICS = NUMERICS + """
from array import array
from repro.shard.messages import ShardSpec

pairs = [(u, v) for u in range(40) for v in (0, (u * 7) % 40, 39) if u != v]
pairs = sorted(set(pairs))
canonical = array("i", [i for pair in pairs for i in pair]).tobytes()
shuffled = array("i", [i for pair in pairs[::-1] for i in pair]).tobytes()
spec = ShardSpec(0, 1, 40, shuffled)
assert spec.edges == ShardSpec(0, 1, 40, canonical).edges == canonical
assert not numerics_loaded(), numerics_loaded()[:8]
"""


def run_fresh_interpreter(code: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_push_family_serving_never_imports_scipy():
    run_fresh_interpreter(SERVING_WITHOUT_SCIPY)


def test_scipy_users_still_work_and_load_it_on_first_use():
    run_fresh_interpreter(SCIPY_LOADS_ON_FIRST_USE)


def test_worker_without_quota_loads_no_experiment_harness():
    """``repro.shard.worker`` used to import ``repro.evaluation.runner``
    for the seven lines of ``build_algorithm`` — and with it
    ``QuotaSystem``, both simulators and the calibration probes."""
    run_fresh_interpreter(WORKER_WITHOUT_THE_HARNESS)


def test_front_door_of_a_live_fleet_holds_no_numerics():
    run_fresh_interpreter(FRONT_DOOR_WITHOUT_NUMERICS)


def test_cli_dataset_listing_loads_no_numpy():
    run_fresh_interpreter(CLI_LISTING_WITHOUT_NUMPY)


def test_packages_import_nothing():
    run_fresh_interpreter(PACKAGES_IMPORT_NOTHING)


def test_graph_image_builder_loads_no_numpy():
    """The builder child used to build a ``DynamicGraph`` edge by edge
    and load numpy only to flatten it back into sorted pairs."""
    run_fresh_interpreter(BUILDER_WITHOUT_NUMPY)


def test_unsorted_packed_image_is_sorted_without_numerics():
    run_fresh_interpreter(UNSORTED_SPEC_WITHOUT_NUMERICS)


def test_workers_never_load_the_front_door_stack(tmp_path):
    """``-X importtime`` reaches the children (the launcher copies
    interpreter flags) and prints one line per module per process:
    asyncio, argparse and ``repro.api`` belong to the front door and
    must be imported exactly once fleet-wide — workers that re-imported
    their parent's main module made it three."""
    trace = tmp_path / "importtime.txt"
    with open(trace, "wb") as sink:
        server = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-m", "repro.cli", "serve",
             "--dataset", "webs", "--shards", "2", "--port", "0"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE,
            stderr=sink,
        )
    try:
        for line in server.stdout:
            if b"serving on" in line:
                break
        else:
            raise AssertionError(trace.read_text()[-2000:])
        server.send_signal(signal.SIGTERM)
        server.wait(60.0)
    finally:
        server.kill()
        server.wait(10.0)
        server.stdout.close()
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in trace.read_text().splitlines()
        if line.startswith("import time:")
    ]
    assert imported.count("repro.shard.worker") == 2, "both workers traced"
    for module in ("asyncio", "argparse", "repro.api"):
        assert imported.count(module) == 1, (module, imported.count(module))
