"""A worker serves its command pipe on one thread.

:meth:`ShardServer.serve_pipe` is what a worker process runs after it
reads its spec: the serving loop reads every command the pipe holds
before each admission poll, waits on the pipe when idle, and writes
each reply itself.  These tests drive it in this process over a real
``os.pipe`` so the pipe's backlog can be held still.
"""

import os
import threading
from multiprocessing.connection import Connection

from repro.graph.digraph import DynamicGraph
from repro.shard.messages import (
    MetricsCommand,
    QueryCommand,
    ShardSpec,
    StopCommand,
    UpdateCommand,
)
from repro.shard.worker import ShardServer


def ring_graph(n=24):
    return DynamicGraph.from_edges([(u, (u + 1) % n) for u in range(n)])


def make_server(replies):
    graph = ring_graph()
    spec = ShardSpec(
        shard_id=0,
        num_shards=1,
        num_nodes=graph.num_nodes,
        edges=tuple(sorted(graph.edges())),
        walk_cap=64,
    )
    return ShardServer(spec, reply=replies.append)


class Pipe:
    """A command pipe whose reading end a server loop serves."""

    def __init__(self, server):
        cmd_r, cmd_w = os.pipe()
        self.reader = Connection(cmd_r, writable=False)
        self.writer = Connection(cmd_w, readable=False)
        self.loop = threading.Thread(
            target=server.serve_pipe, args=(self.reader,)
        )
        self.loop.start()

    def close(self):
        if not self.writer.closed:
            self.writer.close()
        self.loop.join(30.0)
        assert not self.loop.is_alive()
        self.reader.close()


def test_backlog_gauge_sees_commands_waiting_behind_a_busy_loop():
    replies = []
    server = make_server(replies)
    algorithm = server.runtime.algorithm
    query = algorithm.query
    running, release = threading.Event(), threading.Event()

    def stalled(source):
        running.set()
        assert release.wait(30.0)
        return query(source)

    algorithm.query = stalled
    pipe = Pipe(server)
    try:
        pipe.writer.send(QueryCommand(1, 0))
        assert running.wait(30.0)  # the one thread is in the kernel
        for req_id in range(2, 6):  # nobody reads these: they wait
            pipe.writer.send(QueryCommand(req_id, req_id))
        algorithm.query = query
        release.set()
        pipe.writer.send(MetricsCommand(6))
        pipe.writer.send(StopCommand(7))
        pipe.loop.join(30.0)
    finally:
        release.set()
        pipe.close()
    # a metrics command is answered when it is read, between requests
    by_id = {reply.req_id: reply for reply in replies}
    assert sorted(by_id) == [1, 2, 3, 4, 5, 6, 7]
    assert all(reply.ok for reply in replies)
    gauge = by_id[6].payload["metrics"]["gauges"][
        "serving.pipe_backlog_bytes"
    ]
    # four queued queries were readable at the first look after the stall
    assert gauge["high_water"] > 0
    assert replies[-1].req_id == 7
    assert replies[-1].payload == {"stopped": True}


def test_eof_on_the_command_pipe_ends_the_loop():
    replies = []
    server = make_server(replies)
    pipe = Pipe(server)
    pipe.writer.send(UpdateCommand(1, 1, 0, 5))
    pipe.writer.send(QueryCommand(2, 0))
    pipe.close()  # the parent is gone: EOF, after what it sent
    assert [reply.req_id for reply in replies] == [1, 2]
    assert all(reply.ok for reply in replies)
    assert server.runtime.algorithm.graph.has_edge(0, 5)
    assert not server.runtime.running
