"""ShardManager control plane: routing, admission, health, respawn.

Most of this runs on the deterministic in-process backend; the
cross-process answers are covered by the stress-marked equivalence
oracle in ``test_equivalence.py`` and the smoke in the bench.  The
process-hygiene tests at the end start real workers (and one real
``repro serve``) and read ``/proc``: which processes a fleet is made
of, and that none outlives it.
"""

import dataclasses
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.graph.digraph import DynamicGraph
from repro.obs.metrics import MetricsRegistry
from repro.shard import messages
from repro.shard.image import ImageBuild, graph_image
from repro.shard.manager import ShardManager, RETRY_AFTER_UNHEALTHY_S

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
needs_procfs = pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="reads /proc (Linux)"
)


def ring_graph(n=24):
    edges = [(u, (u + 1) % n) for u in range(n)]
    edges += [(u, (u + 5) % n) for u in range(0, n, 3)]
    return DynamicGraph.from_edges(sorted(set(edges)))


def make_manager(num_shards=2, **overrides):
    options = dict(
        backend="inproc",
        walk_cap=64,
        query_mode="exact",
        metrics=MetricsRegistry(),
    )
    options.update(overrides)
    graph = options.pop("graph", None) or ring_graph()
    return ShardManager(graph, num_shards, **options)


def wait_until(predicate, timeout_s=30.0, interval_s=0.005):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(interval_s)
    return True


def test_query_routes_to_owner_and_serves():
    with make_manager() as manager:
        for source in range(8):
            outcome = manager.query_sync(source, timeout_s=60.0)
            assert outcome.ok, outcome
            assert outcome.shard_id == manager.router.route(source)
            assert outcome.values, "full vector expected"
            # the source holds the largest mass in its own PPR vector
            top_node = max(outcome.values, key=lambda pair: pair[1])[0]
            assert top_node == source


def test_top_k_truncation():
    with make_manager(num_shards=1) as manager:
        outcome = manager.query_sync(0, top_k=3, timeout_s=60.0)
        assert outcome.ok
        assert len(outcome.values) == 3
        scores = [value for _, value in outcome.values]
        assert scores == sorted(scores, reverse=True)


def test_negative_source_rejected():
    with make_manager(num_shards=1) as manager:
        with pytest.raises(ValueError):
            manager.query(-1)


def test_update_broadcast_reaches_every_shard():
    with make_manager(num_shards=3) as manager:
        first = manager.update(0, 7)
        second = manager.update(1, 8)
        assert (first.version, second.version) == (1, 2)
        assert first.acked_shards == (0, 1, 2)
        assert not first.skipped_shards
        assert manager.fabric_version == 2
        health = manager.healthz()
        assert health["healthy"]
        assert all(
            shard["applied_broadcasts"] == 2 for shard in health["shards"]
        )


def test_unhealthy_shard_sheds_with_retry_hint():
    with make_manager(num_shards=2, auto_respawn=False) as manager:
        victim = manager.shard_handle(0)
        victim.crash()
        assert wait_until(lambda: not victim.healthy)
        # a source owned by the dead shard sheds with the respawn hint
        shed_source = next(
            s for s in range(24) if manager.router.route(s) == 0
        )
        outcome = manager.query_sync(shed_source, timeout_s=60.0)
        assert outcome.status == "shed"
        assert outcome.shed_reason == "shard-unhealthy"
        assert outcome.retry_after_s == RETRY_AFTER_UNHEALTHY_S
        # the surviving shard keeps serving its own range
        live_source = next(
            s for s in range(24) if manager.router.route(s) == 1
        )
        assert manager.query_sync(live_source, timeout_s=60.0).ok
        health = manager.healthz()
        assert not health["healthy"]
        assert health["healthy_shards"] == 1
        # updates keep flowing to the healthy shard, dead one skipped
        outcome = manager.update(0, 9)
        assert outcome.acked_shards == (1,)
        assert outcome.skipped_shards == (0,)


def test_crash_then_respawn_replays_log():
    metrics = MetricsRegistry()
    with make_manager(num_shards=2, metrics=metrics) as manager:
        manager.update(0, 7)
        manager.update(2, 9)
        victim = manager.shard_handle(1)
        victim.crash()
        assert wait_until(lambda: not victim.healthy)
        assert wait_until(lambda: manager.healthy_shard_count() == 2)
        health = manager.healthz()
        assert health["healthy"]
        assert all(
            shard["applied_broadcasts"] == 2 for shard in health["shards"]
        )
        # the respawned owner serves its range again
        source = next(s for s in range(24) if manager.router.route(s) == 1)
        assert manager.query_sync(source, timeout_s=60.0).ok
        counters = metrics.snapshot()["counters"]
        assert counters["shard.respawns"] == 1
        assert counters.get("shard.order_faults", 0) == 0


def test_respawned_shard_keeps_every_spec_field():
    with make_manager(num_shards=2) as manager:
        # a non-default value in the one field no constructor option
        # sets, so a field-by-field copy that forgets it shows
        manager._base_spec = dataclasses.replace(
            manager._base_spec, calibration_queries=5
        )
        victim = manager.shard_handle(1)
        victim.crash()
        assert wait_until(lambda: manager.shard_handle(1) is not victim)
        assert manager.shard_handle(1).spec == dataclasses.replace(
            manager._base_spec, shard_id=1
        )


def test_inflight_bound_sheds_and_recovers():
    with make_manager(
        num_shards=1, max_inflight_per_shard=2, auto_respawn=False
    ) as manager:
        handle = manager.shard_handle(0)
        handle.pause()  # deterministic backlog: nothing completes
        admitted = [manager.query(0), manager.query(1)]
        shed = manager.query_sync(2, timeout_s=60.0)
        assert shed.status == "shed"
        assert shed.shed_reason == "inflight-full"
        assert shed.retry_after_s is not None
        assert shed.retry_after_s > 0
        handle.resume()
        for future in admitted:
            assert future.result(60.0).ok
        # the window drained; admission works again
        assert manager.query_sync(3, timeout_s=60.0).ok


def test_metrics_snapshot_aggregates_workers():
    with make_manager(num_shards=2) as manager:
        manager.query_sync(0, timeout_s=60.0)
        manager.update(0, 7)
        snapshot = manager.metrics_snapshot()
        counters = snapshot["manager"]["counters"]
        assert counters["shard.queries_routed"] == 1
        assert counters["shard.updates_broadcast"] == 1
        assert set(snapshot["shards"]) == {"0", "1"}
        for payload in snapshot["shards"].values():
            assert "metrics" in payload
            assert payload["state"]["applied_broadcasts"] == 1


def test_metrics_snapshot_carries_per_shard_index_accounting():
    """The ``index.*`` registry counters are per process; the "index"
    block beside "cache" is per shard, so a fleet scrape can tell how
    many walks each replica resampled and what its map weighs."""
    with make_manager(num_shards=2, algorithm="FORA+inc") as manager:
        for v in (7, 9, 11):
            manager.update(0, v)
        assert wait_until(
            lambda: all(
                payload["index"]["incremental_updates"] == 3
                for payload in manager.metrics_snapshot()["shards"].values()
            )
        )
        for payload in manager.metrics_snapshot()["shards"].values():
            index = payload["index"]
            assert index["total_walks"] > 0
            assert index["walks_resampled"] > 0
            assert index["arena_live_steps"] > 0
            assert index["arena_dead_steps"] >= 0
            # flat arrays, not Python objects: well under the ~1.2 kB
            # per walk the dict/set layout cost
            assert 0 < index["edge_map_bytes"] < 400 * index["total_walks"]
    with make_manager(num_shards=1) as manager:  # FORA holds no index
        (payload,) = manager.metrics_snapshot()["shards"].values()
        assert "index" not in payload


def test_metrics_snapshot_attributes_memory_by_process():
    """``server_rss_mb`` is a sum over processes; the "process" blocks
    say whose RSS it is without an outside ``/proc`` scan."""
    with make_manager(num_shards=2) as manager:
        snapshot = manager.metrics_snapshot()
        blocks = [snapshot["process"]] + [
            payload["process"] for payload in snapshot["shards"].values()
        ]
        assert len(blocks) == 3
        for block in blocks:
            # inproc backend: every shard lives in this process
            assert block["pid"] == os.getpid()
            assert block["rss_mb"] >= 0.0
        if os.path.exists("/proc/self/status"):
            assert all(block["rss_mb"] > 1.0 for block in blocks)


def test_stop_is_terminal():
    manager = make_manager(num_shards=1)
    manager.stop()
    with pytest.raises(RuntimeError):
        manager.update(0, 7)



def test_image_is_validated_once_for_spawns_and_respawns(monkeypatch):
    """Per-shard specs are derived from the validated base spec: the
    12 ms lexsort + duplicate scan of ``lj`` used to run on every spawn
    and every respawn, for a buffer the manager itself had packed."""
    image = graph_image(ring_graph())
    calls = []
    real = messages.pack_edges

    def counting(num_nodes, edges):
        calls.append(len(edges))
        return real(num_nodes, edges)

    monkeypatch.setattr(messages, "pack_edges", counting)
    with make_manager(num_shards=2, graph=image) as manager:
        victim = manager.shard_handle(1)
        victim.crash()
        assert wait_until(lambda: manager.shard_handle(1) is not victim)
        assert wait_until(lambda: manager.healthy_shard_count() == 2)
        assert manager.shard_handle(1).spec.edges is image.edges
    assert calls == [len(image.edges)]


# ----------------------------------------------------------------------
# process hygiene on the real backend
# ----------------------------------------------------------------------
def process_state(pid):
    """One-letter state from ``/proc/<pid>/stat``; None when it is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="latin-1") as handle:
            stat = handle.read()
    except OSError:
        return None
    return stat[stat.rfind(")") + 2:].split()[0]


def children_of(parent):
    """``(pid, state, cmdline)`` of every process whose parent is ``parent``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="latin-1") as handle:
                stat = handle.read()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if int(fields[1]) == parent:
            found.append((int(entry), fields[0], cmdline))
    return found


@needs_procfs
def test_process_fleet_is_its_workers_and_nothing_else():
    before = {pid for pid, _, _ in children_of(os.getpid())}
    manager = make_manager(num_shards=2, backend="process")
    try:
        fleet = [
            child for child in children_of(os.getpid())
            if child[0] not in before
        ]
        assert len(fleet) == 2, fleet
        for _, _, cmdline in fleet:
            assert "spawn_main" in cmdline
            assert "resource_tracker" not in cmdline
        assert manager.query_sync(3, timeout_s=60.0).ok
    finally:
        manager.stop()
    left = [c for c in children_of(os.getpid()) if c[0] not in before]
    assert not left, left


@needs_procfs
def test_a_refused_reconfigure_is_an_error_reply_not_a_crash():
    """Rates Quota refuses (negative, NaN) answer the reconfigure with
    an error: every worker keeps serving, none is respawned, and none
    applies a beta solved for a NaN rate."""
    metrics = MetricsRegistry()
    with make_manager(
        num_shards=2, backend="process", use_controller=True, metrics=metrics
    ) as manager:
        workers = [manager.shard_handle(i) for i in range(2)]
        for lambda_q in (-1.0, float("nan")):
            results = manager.reconfigure(lambda_q, 1.0)
            assert set(results) == {"0", "1"}
            for result in results.values():
                assert result["ok"] is False
                assert "lambda_q" in result["error"]
        assert [manager.shard_handle(i) for i in range(2)] == workers
        assert all(worker.healthy for worker in workers)
        assert manager.query_sync(0, timeout_s=60.0).ok
        results = manager.reconfigure(5.0, 1.0)
        assert all("applied" in result for result in results.values())
    assert metrics.snapshot()["counters"].get("shard.respawns", 0) == 0


def test_process_workers_run_one_python_thread():
    """A worker reads commands, serves them and writes the replies on
    its one thread."""
    with make_manager(num_shards=2, backend="process") as manager:
        for source in range(6):
            assert manager.query_sync(source, timeout_s=60.0).ok
        manager.update(0, 7)
        manager.update(3, 11)
        snapshot = manager.metrics_snapshot()
    assert set(snapshot["shards"]) == {"0", "1"}
    for shard in snapshot["shards"].values():
        assert shard["state"]["applied_broadcasts"] == 2
        assert shard["process"]["python_threads"] == 1


def test_workers_boot_while_the_image_is_built():
    """A manager handed a running build launches its interpreters
    before it waits for the image: builder + 2 workers side by side."""
    before = {pid for pid, _, _ in children_of(os.getpid())}
    beside_the_builder = []

    class Watched(ImageBuild):
        def result(self):
            beside_the_builder.extend(
                cmdline for pid, _, cmdline in children_of(os.getpid())
                if pid not in before
            )
            return super().result()

    with make_manager(
        num_shards=2, backend="process", graph=Watched("webs", 0)
    ) as manager:
        assert sum("spawn_main" in c for c in beside_the_builder) == 2
        assert sum("write_image" in c for c in beside_the_builder) == 1
        fleet = [c for c in children_of(os.getpid()) if c[0] not in before]
        assert len(fleet) == 2, fleet
        assert manager.query_sync(3, timeout_s=60.0).ok
        assert manager.shard_handle(0).spec.num_nodes == 280


@needs_procfs
def test_a_failed_image_build_leaves_no_worker_behind(capfd):
    before = {pid for pid, _, _ in children_of(os.getpid())}
    with pytest.raises(RuntimeError, match="exited with 1"):
        make_manager(
            num_shards=2, backend="process",
            graph=ImageBuild("no-such-dataset", 0),
        )
    assert "no-such-dataset" in capfd.readouterr().err
    left = [c for c in children_of(os.getpid()) if c[0] not in before]
    assert not left, left


@needs_procfs
def test_crashed_worker_is_reaped_with_its_exit_code():
    before = {pid for pid, _, _ in children_of(os.getpid())}
    with make_manager(num_shards=2, backend="process") as manager:
        victim = manager.shard_handle(1)
        victim.crash()
        assert wait_until(lambda: not victim.healthy)
        assert "exitcode=13" in victim.death_reason
        assert wait_until(lambda: manager.shard_handle(1) is not victim)
        assert wait_until(lambda: manager.healthy_shard_count() == 2)
        fleet = [
            child for child in children_of(os.getpid())
            if child[0] not in before
        ]
        # the dead worker is gone, not a zombie beside its replacement
        assert len(fleet) == 2, fleet
        assert all(state != "Z" for _, state, _ in fleet), fleet
        source = next(s for s in range(24) if manager.router.route(s) == 1)
        assert manager.query_sync(source, timeout_s=60.0).ok


@needs_procfs
def test_workers_do_not_outlive_a_killed_front_door():
    """No ``daemon`` flag and no tracker: a worker exits because its
    command pipe hits EOF, which a SIGKILLed parent causes as well."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--dataset", "webs",
         "--shards", "2", "--port", "0"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    try:
        for line in server.stdout:
            if b"serving on" in line:
                break
        else:
            pytest.fail("repro serve exited before it was ready")
        workers = [pid for pid, _, _ in children_of(server.pid)]
        assert len(workers) == 2, workers
        server.send_signal(signal.SIGKILL)
        server.wait(10.0)
        # an orphan nobody reaps stays in /proc as a zombie: also dead
        assert wait_until(
            lambda: all(process_state(pid) in (None, "Z") for pid in workers),
            timeout_s=2.0,
        ), [(pid, process_state(pid)) for pid in workers]
    finally:
        server.kill()
        server.wait(10.0)
        server.stdout.close()
