"""Benchmark: what one fleet process pays, stage by stage, to hold the graph.

``server_rss_mb`` of the end-to-end benchmark is a sum of ``VmRSS``
over the front door and its workers, and every one of those processes
goes through the same start-up: import the serving stack, unpickle a
:class:`~repro.shard.messages.ShardSpec`, ``build_graph``, then
``build_algorithm``.  This bench runs exactly those four stages in a
fresh interpreter (one per algorithm, FORA and FORA+inc on ``lj``) and
records the seconds each took and the RSS it added, plus the pickled
spec's size.  It starts no fleet and leaves no process behind: each
child is a ``subprocess.run`` with a timeout.

Asserted (the bench-smoke CI job runs this at quick scope):

* the pickled spec costs <= 10 B per edge (packed int32 pairs are 8;
  a tuple of tuples pickles to 7.5 but *unpickles* into ~120 B per
  edge of Python objects);
* ``build_graph`` adds <= 100 B of RSS per edge (adjacency lists over
  shared ``int`` objects sit near 57; with the edge set and the
  build-time update log it was ~190).

Honesty notes: RSS deltas are page-granular and depend on what the
allocator already had free, so they repeat to about +-0.3 MB, not to
the byte; quick scope is one child per algorithm, full scope reports
the median of five.  ``previous`` is the parent commit 347b957 on the
host that recorded the committed JSON (tuple-valued ``ShardSpec.edges``,
``DynamicGraph`` with an edge set, edge-by-edge ``build_graph``).

Results land in ``BENCH_fleet_footprint.json`` at the repo root via
``benchmarks/common.py``.  Run directly or through pytest.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

from benchmarks.common import REPO_ROOT, scoped, write_bench_json
from repro.evaluation.datasets import get_dataset
from repro.shard.messages import ShardSpec

DATASET = "lj"
ALGORITHMS = ("FORA", "FORA+inc")
STAGES = ("imports", "spec_unpickle", "build_graph", "build_algorithm")

SPEC_BYTES_PER_EDGE_CEILING = 10.0
GRAPH_RSS_BYTES_PER_EDGE_CEILING = 100.0

#: the same stages at the parent commit 347b957 on the recording host
#: (2 cores, seed 0, median of three children per algorithm)
PREVIOUS = {
    "commit": "347b957",
    "spec_pickle_bytes": 543_846,
    "FORA": {
        "imports": {"seconds": 0.266, "rss_mb": 30.7},
        "spec_unpickle": {"seconds": 0.0199, "added_mb": 8.5, "rss_mb": 39.2},
        "build_graph": {"seconds": 0.0779, "added_mb": 13.0, "rss_mb": 52.2},
        "build_algorithm": {"seconds": 0.0685, "added_mb": 6.5, "rss_mb": 58.7},
        "graph": {"version": 72062, "num_edges": 72062, "log_entries": 39294},
    },
    "FORA+inc": {
        "imports": {"seconds": 0.268, "rss_mb": 30.6},
        "spec_unpickle": {"seconds": 0.0202, "added_mb": 8.3, "rss_mb": 39.0},
        "build_graph": {"seconds": 0.0795, "added_mb": 13.1, "rss_mb": 52.0},
        "build_algorithm": {"seconds": 0.123, "added_mb": 18.6, "rss_mb": 70.6},
        "graph": {"version": 72062, "num_edges": 72062, "log_entries": 39294},
    },
}

#: runs in the fresh interpreter: argv = [pickled spec path]
CHILD = """
import sys, time
started = time.perf_counter()
import json, pickle
from repro.evaluation.runner import build_algorithm
from repro.obs import process_stats
from repro.shard.worker import build_graph

marks = [("imports", time.perf_counter() - started,
          process_stats()["rss_mb"])]

def stage(name, fn):
    begin = time.perf_counter()
    result = fn()
    marks.append((name, time.perf_counter() - begin,
                  process_stats()["rss_mb"]))
    return result

def unpickle():
    with open(sys.argv[1], "rb") as handle:
        return pickle.load(handle)

spec = stage("spec_unpickle", unpickle)
graph = stage("build_graph", lambda: build_graph(spec))
algorithm = stage("build_algorithm", lambda: build_algorithm(
    spec.algorithm, graph, spec.walk_cap, seed=spec.seed, engine=spec.engine))
print(json.dumps({
    "marks": marks,
    "num_edges": graph.num_edges,
    "version": graph.version,
    "log_entries": len(graph._log),
    "caught_up": graph.updates_since(graph.version) == [],
}))
"""


def lj_spec(algorithm: str) -> ShardSpec:
    """The spec ``repro serve --dataset lj --algorithm ...`` ships."""
    dataset = get_dataset(DATASET)
    graph = dataset.build(seed=0)
    return ShardSpec(
        shard_id=0,
        num_shards=2,
        num_nodes=graph.num_nodes,
        edges=graph.edges(),
        algorithm=algorithm,
        walk_cap=dataset.walk_cap,
    )


def run_stages(spec_pickle: bytes) -> dict:
    """One fresh interpreter through the four start-up stages.

    Returns ``{stage: {"seconds", "rss_mb", "added_mb"}}`` (``added_mb``
    is the RSS growth over the previous stage; ``imports`` has only the
    absolute value) plus what the child saw of the built graph.
    """
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "spec.pickle"
        path.write_bytes(spec_pickle)
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(path)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
    if proc.returncode != 0:
        raise RuntimeError(f"footprint child failed:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    stages: dict[str, dict[str, float]] = {}
    before = None
    for name, seconds, rss_mb in report.pop("marks"):
        stages[name] = {"seconds": seconds, "rss_mb": rss_mb}
        if before is not None:
            stages[name]["added_mb"] = rss_mb - before
        before = rss_mb
    return {"stages": stages, **report}


def run_bench() -> dict:
    repeats = scoped(1, 5)
    results: dict[str, object] = {"dataset": DATASET, "repeats": repeats}
    for algorithm in ALGORITHMS:
        spec_pickle = pickle.dumps(lj_spec(algorithm))
        runs = [run_stages(spec_pickle) for _ in range(repeats)]
        first = runs[0]
        results.setdefault("num_edges", first["num_edges"])
        results.setdefault("spec_pickle_bytes", len(spec_pickle))
        results[algorithm] = {
            name: {
                key: median(run["stages"][name][key] for run in runs)
                for key in first["stages"][name]
            }
            for name in STAGES
        }
        results[algorithm]["graph"] = {
            key: first[key]
            for key in ("num_edges", "version", "log_entries", "caught_up")
        }
    results["previous"] = PREVIOUS
    return results


# ----------------------------------------------------------------------
# pytest entry points (bench-smoke job) + CLI
# ----------------------------------------------------------------------
_RESULTS: dict | None = None


def _results() -> dict:
    global _RESULTS
    if _RESULTS is None:
        _RESULTS = run_bench()
        write_bench_json("fleet_footprint", _RESULTS)
    return _RESULTS


def test_pickled_spec_is_packed():
    results = _results()
    per_edge = results["spec_pickle_bytes"] / results["num_edges"]
    assert per_edge <= SPEC_BYTES_PER_EDGE_CEILING


def test_build_graph_holds_the_graph_once():
    results = _results()
    for algorithm in ALGORITHMS:
        added = results[algorithm]["build_graph"]["added_mb"] * 2**20
        assert added / results["num_edges"] <= GRAPH_RSS_BYTES_PER_EDGE_CEILING
        graph = results[algorithm]["graph"]
        assert graph["version"] == graph["num_edges"] == results["num_edges"]
        assert graph["log_entries"] == 0 and graph["caught_up"]


def main() -> None:
    results = _results()
    edges = results["num_edges"]
    print(
        f"{DATASET}: {edges} edges, pickled spec "
        f"{results['spec_pickle_bytes']} B "
        f"({results['spec_pickle_bytes'] / edges:.1f} B/edge)"
    )
    for algorithm in ALGORITHMS:
        print(f"{algorithm}:")
        for name in STAGES:
            row = results[algorithm][name]
            added = (
                f"+{row['added_mb']:5.1f} MB" if "added_mb" in row else " " * 9
            )
            print(
                f"  {name:<16} {row['seconds'] * 1e3:7.1f} ms  {added}  "
                f"-> {row['rss_mb']:6.1f} MB"
            )


if __name__ == "__main__":
    main()
