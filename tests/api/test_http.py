"""HTTP/1.1 end-to-end: real sockets on an ephemeral port.

One event loop runs both the server and a raw asyncio-streams client
(``Connection: close`` per request), so the wire format — status
lines, Retry-After rendering, JSON bodies, 404/405 routing — is
exercised exactly as a closed-loop client would see it.
"""

import asyncio
import json

from repro.api.frontdoor import FrontDoor
from repro.api.http import HttpServer
from repro.graph.digraph import DynamicGraph
from repro.obs.metrics import MetricsRegistry
from repro.shard.manager import ShardManager


def ring_graph(n=24):
    edges = [(u, (u + 1) % n) for u in range(n)]
    edges += [(u, (u + 5) % n) for u in range(0, n, 3)]
    return DynamicGraph.from_edges(sorted(set(edges)))


async def fetch(port, method, target, body=None):
    """One raw HTTP request; returns (status, headers, parsed body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {target} HTTP/1.1\r\n"
        f"Host: 127.0.0.1:{port}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    await writer.wait_closed()
    header_block, _, body_bytes = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = header_block.decode("latin-1").split("\r\n")
    status = int(status_line.split()[1])
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(body_bytes.decode() or "null")


def test_http_end_to_end():
    manager = ShardManager(
        ring_graph(),
        2,
        backend="inproc",
        walk_cap=64,
        query_mode="exact",
        auto_respawn=False,
        metrics=MetricsRegistry(),
    )

    async def scenario():
        server = HttpServer(FrontDoor(manager, default_top_k=4))
        await server.start()
        assert server.port != 0  # ephemeral port was resolved
        port = server.port
        try:
            # query: 200 with a truncated vector
            status, _, body = await fetch(port, "GET", "/query?source=0")
            assert status == 200
            assert body["status"] == "ok"
            assert len(body["values"]) == 4

            # explicit top_k wins over the server default
            status, _, body = await fetch(
                port, "GET", "/query?source=0&top_k=2"
            )
            assert status == 200
            assert len(body["values"]) == 2

            # missing required param / unparsable param
            status, _, body = await fetch(port, "GET", "/query")
            assert status == 400
            status, _, _ = await fetch(port, "GET", "/query?source=zap")
            assert status == 400

            # an already-dead budget is refused with 504
            status, _, body = await fetch(
                port, "GET", "/query?source=0&budget_s=0"
            )
            assert status == 504
            assert body["status"] == "timeout"

            # update broadcast through the wire
            status, _, body = await fetch(
                port, "POST", "/update", {"u": 0, "v": 7}
            )
            assert status == 200
            assert body["version"] == 1
            assert body["acked_shards"] == [0, 1]

            # health + metrics while the fleet is whole
            status, _, body = await fetch(port, "GET", "/healthz")
            assert status == 200
            assert body["fabric_version"] == 1
            status, _, body = await fetch(port, "GET", "/metrics")
            assert status == 200
            assert "api.requests" in body["manager"]["counters"]

            # routing edges: unknown path, wrong method, bad JSON
            status, _, _ = await fetch(port, "GET", "/nope")
            assert status == 404
            status, _, _ = await fetch(port, "POST", "/query")
            assert status == 405
            status, _, _ = await fetch(port, "GET", "/update")
            assert status == 405

            # kill a shard: queries for its range shed with an integer
            # Retry-After header, healthz degrades to 503
            manager.shard_handle(0).kill()
            shed_source = next(
                s for s in range(24) if manager.router.route(s) == 0
            )
            status, headers, body = await fetch(
                port, "GET", f"/query?source={shed_source}"
            )
            assert status == 503
            assert body["shed_reason"] == "shard-unhealthy"
            assert int(headers["retry-after"]) >= 1
            status, headers, _ = await fetch(port, "GET", "/healthz")
            assert status == 503
            assert "retry-after" in headers
        finally:
            await server.stop()

    try:
        asyncio.run(scenario())
    finally:
        manager.stop()
