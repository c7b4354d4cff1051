"""A shard worker gives freed heap back to the OS when it goes idle.

:class:`~repro.shard.heap.HeapRelease` is driven here with injected
resident / trim / clock fakes, then inside
:meth:`~repro.shard.worker.ShardServer.serve_pipe` over a real
``os.pipe``, and last in a process fleet, where the first idle moment
after start-up releases what the index build freed.
"""

import array
import fcntl
import os
import termios
import threading
from multiprocessing.connection import Connection

import pytest

from repro.graph.digraph import DynamicGraph
from repro.obs.metrics import MetricsRegistry
from repro.shard import heap
from repro.shard.heap import MIN_GROWTH_BYTES, MIN_INTERVAL_S, HeapRelease
from repro.shard.manager import ShardManager
from repro.shard.messages import QueryCommand, ShardSpec, StopCommand, UpdateCommand
from repro.shard.worker import ShardServer

MIB = 1 << 20


class Fakes:
    """A resident-size, a trim and a clock the test moves by hand."""

    def __init__(self, resident=100 * MIB, freed=0):
        self.resident = resident
        self.freed = freed  # what each trim gives back
        self.now = 0.0
        self.trims = 0

    def trim(self):
        self.trims += 1
        self.resident -= self.freed

    def policy(self, metrics=None, **overrides):
        options = dict(
            resident=lambda: self.resident, trim=self.trim,
            clock=lambda: self.now,
        )
        options.update(overrides)
        return HeapRelease(metrics or MetricsRegistry(), **options)


def counters(metrics):
    snapshot = metrics.counters()
    return snapshot["serving.heap_releases"], snapshot["serving.heap_released_bytes"]


def test_first_idle_moment_releases_what_start_up_freed():
    fakes, metrics = Fakes(freed=12 * MIB), MetricsRegistry()
    release = fakes.policy(metrics)
    release.on_idle()
    assert fakes.trims == 1
    assert release.floor == 88 * MIB
    assert counters(metrics) == (1, 12 * MIB)


def test_no_release_below_the_growth_threshold():
    fakes, metrics = Fakes(), MetricsRegistry()
    release = fakes.policy(metrics)
    release.on_idle()  # the start-up release sets the floor
    for step in range(1, 6):
        fakes.now = step * MIN_INTERVAL_S
        fakes.resident = release.floor + MIN_GROWTH_BYTES - 4096
        release.on_idle()
    assert fakes.trims == 1
    fakes.now += MIN_INTERVAL_S
    fakes.resident = release.floor + MIN_GROWTH_BYTES
    release.on_idle()
    assert fakes.trims == 2
    assert counters(metrics)[0] == 2


def test_at_most_one_release_per_interval():
    fakes = Fakes()
    release = fakes.policy()
    for tick in range(100):  # 10 s of 0.1 s idle ticks, always grown
        fakes.now = tick * 0.1
        fakes.resident += 8 * MIB
        release.on_idle()
    assert fakes.trims == 10


def test_the_floor_resets_after_each_release():
    fakes = Fakes(freed=3 * MIB)
    release = fakes.policy()
    release.on_idle()
    assert release.floor == 97 * MIB
    # growth is measured from the new floor, not from the first one
    fakes.now, fakes.resident = MIN_INTERVAL_S, 97 * MIB + MIN_GROWTH_BYTES
    release.on_idle()
    assert fakes.trims == 2
    assert release.floor == 97 * MIB + MIN_GROWTH_BYTES - 3 * MIB
    fakes.now, fakes.resident = 2 * MIN_INTERVAL_S, 97 * MIB + MIN_GROWTH_BYTES
    release.on_idle()  # 3 MiB above the new floor
    assert fakes.trims == 3


def test_a_trim_that_frees_nothing_counts_no_bytes():
    fakes, metrics = Fakes(), MetricsRegistry()
    fakes.policy(metrics).on_idle()
    assert counters(metrics) == (1, 0)


@pytest.mark.parametrize("missing", ["trim", "resident"])
def test_no_op_without_malloc_trim_or_statm(missing):
    fakes, metrics = Fakes(), MetricsRegistry()
    release = fakes.policy(metrics, **{missing: None})
    for step in range(5):
        fakes.now = step * MIN_INTERVAL_S
        release.on_idle()
    assert fakes.trims == 0
    assert counters(metrics) == (0, 0)


@pytest.mark.skipif(heap.RESIDENT is None, reason="reads /proc/self/statm")
def test_statm_reads_this_process_resident_pages():
    resident = heap.RESIDENT()
    with open("/proc/self/status") as handle:
        vm_rss = next(
            int(line.split()[1]) * 1024
            for line in handle if line.startswith("VmRSS:")
        )
    assert resident > 0
    assert abs(resident - vm_rss) < 4 * MIB


# ----------------------------------------------------------------------
# in the serving loop
# ----------------------------------------------------------------------
def ring_spec(n=24):
    graph = DynamicGraph.from_edges([(u, (u + 1) % n) for u in range(n)])
    return ShardSpec(
        shard_id=0,
        num_shards=1,
        num_nodes=graph.num_nodes,
        edges=tuple(sorted(graph.edges())),
        walk_cap=64,
    )


def test_serve_pipe_never_releases_while_a_command_waits():
    replies = []
    server = ShardServer(ring_spec(), reply=replies.append)
    cmd_r, cmd_w = os.pipe()
    reader = Connection(cmd_r, writable=False)
    writer = Connection(cmd_w, readable=False)
    readable = array.array("i", [0])
    seen = []  # (bytes waiting in the pipe, replies written) per trim
    fakes = Fakes()

    def trim():
        fcntl.ioctl(cmd_r, termios.FIONREAD, readable)
        seen.append((readable[0], len(replies)))

    server.heap = fakes.policy(server.metrics, trim=trim)
    algorithm = server.runtime.algorithm
    query = algorithm.query
    running, resume = threading.Event(), threading.Event()

    def stalled(source):
        running.set()
        assert resume.wait(30.0)
        return query(source)

    algorithm.query = stalled
    loop = threading.Thread(target=server.serve_pipe, args=(reader,))
    loop.start()
    try:
        assert wait_for(lambda: len(seen) == 1)  # idle once served nothing
        writer.send(QueryCommand(1, 0))
        assert running.wait(30.0)  # the loop is in the kernel
        algorithm.query = query
        for req_id in range(2, 6):  # these wait in the pipe
            writer.send(QueryCommand(req_id, req_id))
        writer.send(UpdateCommand(6, 1, 0, 5))
        # from now on a look is due and finds the heap grown
        fakes.now, fakes.resident = 10 * MIN_INTERVAL_S, 200 * MIB
        resume.set()
        assert wait_for(lambda: len(seen) == 2)
        writer.send(StopCommand(7))
        loop.join(30.0)
    finally:
        resume.set()
        if not writer.closed:
            writer.close()
        loop.join(30.0)
        reader.close()
    assert not loop.is_alive()
    # one release when the loop first went idle, one once all six
    # commands were served; none between them, and the clock stood
    # still after, so none with the StopCommand waiting
    assert seen == [(0, 0), (0, 6)]
    assert sorted(reply.req_id for reply in replies) == [1, 2, 3, 4, 5, 6, 7]


def wait_for(predicate, timeout_s=30.0):
    done = threading.Event()
    for _ in range(int(timeout_s / 0.01)):
        if predicate():
            return True
        done.wait(0.01)
    return predicate()


# ----------------------------------------------------------------------
# in a process fleet
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    heap.MALLOC_TRIM is None or heap.RESIDENT is None,
    reason="needs glibc's malloc_trim and /proc/self/statm",
)
def test_every_worker_releases_after_start_up():
    n = 60
    edges = sorted({(u, (u * 7 + 3) % n) for u in range(n)} | {
        (u, (u + 1) % n) for u in range(n)
    })
    graph = DynamicGraph.from_edges(edges)
    with ShardManager(
        graph, 2, backend="process", algorithm="FORA+inc", walk_cap=64,
    ) as manager:
        def released():
            shards = manager.metrics_snapshot()["shards"]
            return len(shards) == 2 and all(
                shard["metrics"]["counters"]["serving.heap_releases"] >= 1
                for shard in shards.values()
            )

        assert wait_for(released)
        assert manager.query_sync(3, timeout_s=60.0).ok
