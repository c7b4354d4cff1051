"""A fleet process holds the graph once, as adjacency lists and nothing else.

Every worker (and every respawn) unpickles a ``ShardSpec`` and runs
``build_graph``.  With tuple-valued edges, an edge set beside the
adjacency lists and a build-time update log those two steps added
≈ 21 MB per process on ``lj``; packed they add ≈ 4.5 MB.  The ceiling
sits between the two so the object-per-edge layout cannot come back
unnoticed.  Measured in a fresh interpreter (the bench's child): RSS of
the test process says nothing about a worker's.
"""

import os
import pickle

import pytest

from benchmarks.bench_fleet_footprint import lj_spec, run_stages

BUILD_CEILING_MB = 8.0


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="RSS is read from procfs"
)
def test_unpickle_and_build_graph_add_under_eight_megabytes():
    report = run_stages(pickle.dumps(lj_spec("FORA")))
    stages = report["stages"]
    added = stages["spec_unpickle"]["added_mb"] + stages["build_graph"]["added_mb"]
    assert 0.0 < added <= BUILD_CEILING_MB, stages
    assert report["version"] == report["num_edges"] == 72_062
    assert report["log_entries"] == 0 and report["caught_up"]
