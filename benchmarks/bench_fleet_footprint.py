"""Benchmark: what each fleet process pays, stage by stage, and their sum.

``server_rss_mb`` of the end-to-end benchmark is a sum of ``VmRSS``
over the front door and its workers.  Five kinds of row:

* per algorithm (FORA and FORA+inc on ``lj``): a **worker**'s start-up
  in a fresh interpreter — import the serving stack, unpickle a
  :class:`~repro.shard.messages.ShardSpec`, ``build_graph``,
  ``build_algorithm`` — seconds each took, RSS it added, and the
  pickled spec's size;
* ``FORA+inc`` → ``update_stream``: the same worker *after* start-up —
  index built on the main thread, then ``update_heavy``'s share of
  updates and queries applied from a second thread, as the serving
  runtime does — ``VmRSS`` idle and at the end, and (in a second child,
  ``tracemalloc`` on) live bytes after the build, the build's peak and
  the worst ``EdgeWalkMap._compact()`` peak above what was live when it
  began.  The child is started by :func:`repro.shard.launch.python_child`,
  so it runs under the environment a real worker gets;
* ``image_build``: the **graph-image builder** child ``repro serve``
  starts, on its own — wall seconds from launch to exit (imports,
  generating the dataset's pairs, packing them, writing them out) and
  whether it loaded numpy;
* ``frontdoor``: the **control plane**'s start-up in a fresh
  interpreter — import :mod:`repro.api.serve`, receive the graph image
  from the builder child, bring up a 2-shard manager — with the module
  count and whether numpy got loaded at each stage;
* ``fleet``: a real, idle ``repro serve --dataset lj --shards 2`` —
  which processes it is made of and the ``VmRSS`` of each (Linux only).

Every child runs under a timeout and the fleet is torn down before its
row is returned; the row says how many of its processes were left
(asserted 0).

Asserted (the bench-smoke CI job runs this at quick scope):

* the pickled spec costs <= 10 B per edge (packed int32 pairs are 8;
  a tuple of tuples pickles to 7.5 but *unpickles* into ~120 B per
  edge of Python objects);
* ``build_graph`` adds <= 100 B of RSS per edge (adjacency lists over
  shared ``int`` objects sit near 57; with the edge set and the
  build-time update log it was ~190);
* one index compaction peaks <= 8 MB above what was live before it
  (``tracemalloc``; the walk-step-sized int64 temporaries it used to
  hold at once made it 10.6);
* the front door never loads numpy and idles at <= 30 MB, and a fleet
  is ``1 + shards`` processes (it was 49 MB beside a 12 MB
  ``multiprocessing`` resource tracker);
* the image builder never loads numpy (it built a ``DynamicGraph``
  edge by edge and imported numpy to flatten it into sorted pairs).

Honesty notes: RSS deltas are page-granular and depend on what the
allocator already had free, so they repeat to about +-0.3 MB, not to
the byte; quick scope is one child per algorithm, full scope reports
the median of five.  ``previous`` holds the worker rows of commit
347b957 (tuple-valued ``ShardSpec.edges``, ``DynamicGraph`` with an edge
set, edge-by-edge ``build_graph``) and the ``fleet`` row of commit
4ac86f4 (``multiprocessing`` spawn workers, a front door that built the
graph itself), both on the host that recorded the committed JSON; its
``update_stream`` row is commit eb8ce24 (per-thread malloc arenas, int64
walk recorder, doubling slack stores) through this file's child; its
``image_build`` row is commit d399fb7 (the builder generated a
``DynamicGraph`` and packed it with numpy) through this file's
``run_image_build`` and ``run_fleet``.  Start-up seconds are CPU-bound
on a 2-vCPU host and move by ~0.1 s with whatever else runs on it.

Results land in ``BENCH_fleet_footprint.json`` at the repo root via
``benchmarks/common.py``.  Run directly or through pytest.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import pytest

from benchmarks.common import REPO_ROOT, scoped, write_bench_json
from benchmarks.e2e import procfs
from repro.evaluation.datasets import get_dataset
from repro.shard.image import _HEADER
from repro.shard.launch import python_child
from repro.shard.messages import ShardSpec

DATASET = "lj"
ALGORITHMS = ("FORA", "FORA+inc")
STAGES = ("imports", "spec_unpickle", "build_graph", "build_algorithm")

SHARDS = 2
FRONTDOOR_STAGES = ("imports", "image_received", "manager_ready")

SPEC_BYTES_PER_EDGE_CEILING = 10.0
GRAPH_RSS_BYTES_PER_EDGE_CEILING = 100.0
FRONTDOOR_RSS_MB_CEILING = 30.0

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

#: the idle fleet of the parent commit 4ac86f4 on the recording host,
#: by `run_fleet` with that commit's `src` on PYTHONPATH (median of three
#: starts), and its front door's import stage (`import repro.cli,
#: repro.api.serve` in a fresh interpreter)
PREVIOUS["fleet"] = {
    "commit": "4ac86f4",
    "processes": 4,
    "frontdoor_mb": 49.5,
    "resource_tracker_mb": 12.1,
    "worker_mb": [42.7, 42.6],
    "total_mb": 147.0,
    "ready_s": 1.73,
    "frontdoor_imports": {
        "seconds": 0.452, "rss_mb": 37.3, "modules": 324, "numpy": True,
    },
}

#: the FORA+inc worker under ``update_heavy``'s write load at the parent
#: commit eb8ce24 (this file's STREAM_CHILD with that commit's `src`,
#: median of three children; the /proc scan of a real `contract.py
#: --workload update_heavy` run at that commit read 54 MB idle and
#: 64.3 MB at the end for each worker)
PREVIOUS["FORA+inc"]["update_stream"] = {
    "commit": "eb8ce24",
    "idle_rss_mb": 53.7,
    "end_rss_mb": 64.6,
    "live_after_build_mb": 9.68,
    "build_peak_mb": 24.6,
    "compactions": 2,
    "compaction_peak_mb": 10.6,
    "walks_resampled": 56_973,
}

#: the builder child and the idle fleet of the parent commit d399fb7 on
#: the recording host: median of three `run_image_build` rows and of three
#: `run_fleet` starts, alternated with this commit's (0.361 s, 1.109 s)
PREVIOUS["image_build"] = {
    "commit": "d399fb7",
    "seconds": 0.619,
    "numpy_loaded": True,
    "fleet_ready_s": 1.51,
}

COMPACTION_PEAK_MB_CEILING = 8.0

#: builder children timed per run (each is ~0.3 s)
IMAGE_BUILDS = 9

#: the builder child `ImageBuild` starts, plus one byte after the image:
#: whether numpy got loaded
IMAGE_CHILD = (
    f"from repro.shard.image import write_image; write_image({DATASET!r}, 0); "
    "sys.stdout.buffer.write(b'%d' % ('numpy' in sys.modules))"
)

#: `update_heavy` offers 60 upd/s for 24 s to every worker and 15 q/s
#: to the fleet (7.5 per worker): one query per eight updates
STREAM_UPDATES = 1_500
STREAM_UPDATES_PER_QUERY = 8

#: runs under `python_child`: argv = [pickled spec path, "rss" | "trace",
#: updates, updates per query]
STREAM_CHILD = """
import gc, json, pickle, sys, threading, tracemalloc
traced = sys.argv[2] == "trace"
if traced:
    tracemalloc.start()
import numpy as np
import repro.ppr.incremental as incremental
from repro.graph.updates import EdgeUpdate
from repro.obs.metrics import process_stats
from repro.ppr.registry import build_algorithm
from repro.shard.worker import build_graph

MB = 1e6
report = {}
with open(sys.argv[1], "rb") as handle:
    spec = pickle.load(handle)
gc.collect()
if traced:
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
graph = build_graph(spec)
algorithm = build_algorithm(
    spec.algorithm, graph, spec.walk_cap, seed=spec.seed, engine=spec.engine)
algorithm.query(0)
gc.collect()
if traced:
    live, peak = tracemalloc.get_traced_memory()
    report["live_after_build_mb"] = (live - base) / MB
    report["build_peak_mb"] = (peak - base) / MB
else:
    report["idle_rss_mb"] = process_stats()["rss_mb"]

peaks = []
compact = incremental.EdgeWalkMap._compact

def weighed(self):
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    compact(self)
    peaks.append((tracemalloc.get_traced_memory()[1] - before) / MB)

if traced:
    incremental.EdgeWalkMap._compact = weighed

def serve():
    rng = np.random.default_rng(5)
    n = graph.num_nodes
    for i in range(sys.argv[3]):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            algorithm.apply_update(EdgeUpdate(u, v))
        if i % sys.argv[4] == 0:
            algorithm.query(int(rng.integers(0, n)))

thread = threading.Thread(target=serve)
thread.start()
thread.join()
if traced:
    report["compactions"] = len(peaks)
    report["compaction_peak_mb"] = max(peaks, default=0.0)
else:
    report["end_rss_mb"] = process_stats()["rss_mb"]
report.update(algorithm.index_stats())
print(json.dumps(report))
"""

#: runs in the fresh interpreter: argv = [pickled spec path]
CHILD = """
import sys, time
started = time.perf_counter()
import json, pickle
from repro.obs.metrics import process_stats
from repro.ppr.registry import build_algorithm
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

#: the control plane's start-up one stage at a time, so each is attributable
#: (`repro.api.serve._build_manager` overlaps the image build with worker boot;
#: the `fleet` row times that)
FRONTDOOR_CHILD = """
import sys, time
started = time.perf_counter()
import json
import repro.api.serve as serve
from repro.evaluation.datasets import get_dataset
from repro.obs.metrics import process_stats
from repro.shard.image import ImageBuild

marks = []

def mark(name, begin):
    marks.append({"stage": name, "seconds": time.perf_counter() - begin,
                  "rss_mb": process_stats()["rss_mb"],
                  "modules": len(sys.modules),
                  "numpy": "numpy" in sys.modules})

mark("imports", started)
begin = time.perf_counter()
dataset = get_dataset(sys.argv[1])
image = ImageBuild(dataset.name, 0).result()
mark("image_received", begin)
begin = time.perf_counter()
manager = serve.ShardManager(
    image, int(sys.argv[2]), algorithm="FORA", walk_cap=dataset.walk_cap)
try:
    mark("manager_ready", begin)
finally:
    manager.stop()
print(json.dumps(marks))
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


def run_update_stream(spec_pickle: bytes) -> dict:
    """A worker's footprint under ``update_heavy``'s write load: one
    child weighed by ``VmRSS``, one by ``tracemalloc`` (which inflates
    RSS, so never both in one process)."""
    row: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "spec.pickle"
        path.write_bytes(spec_pickle)
        for mode in ("rss", "trace"):
            argv = [str(path), mode, STREAM_UPDATES, STREAM_UPDATES_PER_QUERY]
            child = python_child(
                f"sys.argv[1:] = {argv!r}{STREAM_CHILD}", stdout=subprocess.PIPE
            )
            try:
                out, _ = child.communicate(timeout=300)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait(10.0)
            if child.returncode != 0:
                raise RuntimeError(f"update-stream child ({mode}) failed")
            row.update(json.loads(out.splitlines()[-1]))
    return row


def run_image_build() -> dict:
    """The graph-image builder, launched as ``ImageBuild`` launches it,
    timed from ``Popen`` to exit."""
    runs = []
    for _ in range(IMAGE_BUILDS):
        begin = time.perf_counter()
        child = python_child(IMAGE_CHILD, stdout=subprocess.PIPE)
        try:
            out, _ = child.communicate(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(10.0)
        seconds = time.perf_counter() - begin
        if child.returncode != 0:
            raise RuntimeError("image-builder child failed")
        num_nodes, size = _HEADER.unpack_from(out)
        runs.append((seconds, out[_HEADER.size + size:]))
    return {
        "seconds": median(seconds for seconds, _ in runs),
        "num_nodes": num_nodes,
        "num_edges": size // 8,
        "numpy_loaded": any(flag == b"1" for _, flag in runs),
    }


def _child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}


def run_frontdoor() -> dict:
    """The front door's three start-up stages in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", FRONTDOOR_CHILD, DATASET, str(SHARDS)],
        capture_output=True,
        text=True,
        timeout=120,
        env=_child_env(),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"front-door child failed:\n{proc.stderr[-2000:]}")
    row: dict[str, dict[str, object]] = {}
    before = None
    for mark in json.loads(proc.stdout.splitlines()[-1]):
        name = mark.pop("stage")
        row[name] = mark
        if before is not None:
            mark["added_mb"] = mark["rss_mb"] - before
        before = mark["rss_mb"]
    return row


def _argv(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode().strip()
    except OSError:
        return ""


def run_fleet(idle_s: float = 2.0) -> dict:
    """Start the shipped server, let it idle, weigh every process, stop it."""
    started = time.perf_counter()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--dataset", DATASET,
         "--shards", str(SHARDS), "--port", "0", "--algorithm", "FORA"],
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    try:
        assert server.stdout is not None
        for line in server.stdout:
            if b"serving on" in line:
                break
        else:
            raise RuntimeError("repro serve exited before it was ready")
        ready_s = time.perf_counter() - started
        time.sleep(idle_s)
        members = sorted(
            pid for pid, state, ppid, _ in procfs.proc_table()
            if ppid == server.pid and state != "Z"
        )
        row = {
            "processes": 1 + len(members),
            "ready_s": ready_s,
            "frontdoor_mb": procfs.rss_mb([server.pid]),
            "children": [
                {"argv": _argv(pid)[-70:], "rss_mb": procfs.rss_mb([pid])}
                for pid in members
            ],
        }
        row["total_mb"] = row["frontdoor_mb"] + sum(
            child["rss_mb"] for child in row["children"]
        )
        server.send_signal(signal.SIGTERM)
        server.wait(30.0)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(10.0)
        if server.stdout is not None:
            server.stdout.close()
    # the server was its own session leader: anything still in that
    # session, parent or not, is a process the fleet left behind
    deadline = time.monotonic() + 5.0
    while (left := _alive_in_session(server.pid)) and (
        time.monotonic() < deadline
    ):
        time.sleep(0.05)
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    row["left_behind"] = len(left)
    return row


def _alive_in_session(sid: int) -> list[int]:
    return [
        pid for pid, state in procfs.session_pids({sid}) if state != "Z"
    ]


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
        if algorithm == "FORA+inc":
            streams = [run_update_stream(spec_pickle) for _ in range(repeats)]
            results[algorithm]["update_stream"] = {
                key: median(run[key] for run in streams) for key in streams[0]
            }
    results["image_build"] = run_image_build()
    results["frontdoor"] = run_frontdoor()
    if os.path.isdir("/proc/self"):
        results["fleet"] = run_fleet()
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


def test_index_compaction_holds_few_temporaries():
    row = _results()["FORA+inc"]["update_stream"]
    assert row["compactions"] >= 1, "the stream never crossed the rule"
    assert 0.0 < row["compaction_peak_mb"] <= COMPACTION_PEAK_MB_CEILING


def test_image_builder_loads_no_numpy():
    row = _results()["image_build"]
    assert row["numpy_loaded"] is False
    assert row["num_edges"] == _results()["num_edges"]


def test_front_door_is_a_control_plane():
    row = _results()["frontdoor"]
    for name in FRONTDOOR_STAGES:
        assert not row[name]["numpy"], f"numpy loaded by stage {name}"
    assert row["manager_ready"]["rss_mb"] <= FRONTDOOR_RSS_MB_CEILING


def test_fleet_is_the_front_door_and_its_workers():
    row = _results().get("fleet")
    if row is None:
        pytest.skip("the fleet row reads /proc (Linux)")
    assert row["processes"] == 1 + SHARDS, row["children"]
    assert all("spawn_main" in child["argv"] for child in row["children"])
    assert row["frontdoor_mb"] <= FRONTDOOR_RSS_MB_CEILING
    assert row["left_behind"] == 0


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
    stream = results["FORA+inc"]["update_stream"]
    was = PREVIOUS["FORA+inc"]["update_stream"]
    print(f"FORA+inc worker, {STREAM_UPDATES} updates from a serving thread:")
    for key, unit in (
        ("idle_rss_mb", "MB RSS idle"), ("end_rss_mb", "MB RSS at the end"),
        ("live_after_build_mb", "MB live after build"),
        ("build_peak_mb", "MB build peak"),
        ("compaction_peak_mb", "MB worst compaction peak above its base"),
    ):
        print(f"  {stream[key]:6.1f} {unit} (was {was[key]})")
    row, was = results["image_build"], PREVIOUS["image_build"]
    print(
        f"image builder: {row['seconds']:.3f} s (was {was['seconds']}), "
        f"numpy {'loaded' if row['numpy_loaded'] else 'absent'}"
    )
    print("frontdoor:")
    for name in FRONTDOOR_STAGES:
        row = results["frontdoor"][name]
        print(
            f"  {name:<16} {row['seconds'] * 1e3:7.1f} ms  "
            f"-> {row['rss_mb']:6.1f} MB  {row['modules']} modules, "
            f"numpy {'loaded' if row['numpy'] else 'absent'}"
        )
    fleet = results.get("fleet")
    if fleet is not None:
        was = PREVIOUS["fleet"]
        print(
            f"fleet: {fleet['processes']} processes (was {was['processes']}), "
            f"{fleet['total_mb']:.1f} MB (was {was['total_mb']}), front door "
            f"{fleet['frontdoor_mb']:.1f} MB (was {was['frontdoor_mb']}), "
            f"ready in {fleet['ready_s']:.2f} s (was "
            f"{PREVIOUS['image_build']['fleet_ready_s']})"
        )


if __name__ == "__main__":
    main()
