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


def test_negative_top_k_is_a_bad_request():
    """A negative ``top_k`` used to be served as "all but |k|" entries."""
    manager = ShardManager(
        ring_graph(),
        2,
        backend="inproc",
        walk_cap=64,
        auto_respawn=False,
        metrics=MetricsRegistry(),
    )

    async def scenario():
        server = HttpServer(FrontDoor(manager, default_top_k=4))
        await server.start()
        try:
            status, _, body = await fetch(
                server.port, "GET", "/query?source=3&top_k=-5"
            )
            assert status == 400
            assert body["status"] == "bad-request"
            status, _, body = await fetch(
                server.port, "GET", "/query?source=3&top_k=0"
            )
            assert status == 200
            assert body["values"] == []
        finally:
            await server.stop()

    try:
        asyncio.run(scenario())
    finally:
        manager.stop()


def test_update_and_query_params_are_validated_not_coerced():
    """``int()`` truncated a JSON float and took ``true`` for 1, so both
    bodies toggled edge (1, 2), a change that was versioned, broadcast
    and replayed on every respawn; a NaN ``budget_s`` compared false
    with everything and reached the worker as a deadline that never
    expires."""
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
        port = server.port
        try:
            for body in (
                {"u": 1.9, "v": 2},
                {"u": True, "v": 2},
                {"u": 1, "v": 2.0},
                {"u": "1", "v": 2},
                {"v": 2},
            ):
                status, _, reply = await fetch(port, "POST", "/update", body)
                assert status == 400, body
                assert reply["status"] == "error"
            assert manager.fabric_version == 0
            status, _, reply = await fetch(
                port, "POST", "/update", {"u": 1, "v": 2}
            )
            assert status == 200
            assert reply["version"] == 1

            status, _, reply = await fetch(
                port, "GET", "/query?source=0&budget_s=nan"
            )
            assert status == 400
            assert reply["status"] == "bad-request"
            status, _, reply = await fetch(
                port, "GET", "/query?source=0&budget_s=30"
            )
            assert status == 200
        finally:
            await server.stop()

    try:
        asyncio.run(scenario())
    finally:
        manager.stop()


def test_reconfigure_refuses_rates_quota_cannot_solve_for():
    """``json`` accepts ``NaN`` and ``Infinity``: a NaN rate used to
    reach every shard, which applied the r_max box bound."""
    metrics = MetricsRegistry()
    manager = ShardManager(
        ring_graph(),
        1,
        backend="inproc",
        walk_cap=64,
        query_mode="exact",
        auto_respawn=False,
        metrics=metrics,
    )

    async def scenario():
        frontdoor = FrontDoor(manager)
        server = HttpServer(frontdoor)
        await server.start()
        try:
            for body in (
                {"lambda_q": float("nan"), "lambda_u": 1.0},
                {"lambda_q": float("inf"), "lambda_u": 1.0},
                {"lambda_q": 5.0, "lambda_u": float("nan")},
                {"lambda_q": -1.0, "lambda_u": 1.0},
                {"lambda_q": 0.0, "lambda_u": 1.0},
                {"lambda_q": 5.0, "lambda_u": -1.0},
            ):
                status, _, reply = await fetch(
                    server.port, "POST", "/reconfigure", body
                )
                assert status == 400, body
                assert reply["status"] == "bad-request"
            assert "shard.reconfigurations" not in (
                metrics.snapshot()["counters"]
            )
            assert list(frontdoor.reconfigurations) == []
            status, _, reply = await fetch(
                server.port, "POST", "/reconfigure",
                {"lambda_q": 5.0, "lambda_u": 0.0},
            )
            assert status == 200
            assert reply["shards"] == {"0": {"applied": False}}
        finally:
            await server.stop()

    try:
        asyncio.run(scenario())
    finally:
        manager.stop()


def test_update_kinds_the_replicas_cannot_apply_are_refused():
    """An explicit insert of an edge that exists, a delete of one that
    does not, or an unknown kind used to answer 200 with a version; then
    every shard's apply raised, counted a fault, ran degraded for the
    rest of its life, and the update log replayed the fault on every
    respawn."""
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
        port = server.port
        try:
            for kind in ("bogus", "insert", "delete", 5):
                # (0, 1) is a ring edge: an insert of it, and a delete
                # of the absent (1, 0), are the two explicit faults
                u, v = (1, 0) if kind == "delete" else (0, 1)
                status, _, reply = await fetch(
                    port, "POST", "/update", {"u": u, "v": v, "kind": kind}
                )
                assert status == 400, kind
                assert reply["status"] == "bad-request"
            assert manager.fabric_version == 0
            status, _, reply = await fetch(
                port, "POST", "/update", {"u": 0, "v": 1}
            )
            assert status == 200
            assert reply["version"] == 1
            status, _, reply = await fetch(port, "GET", "/metrics")
            for shard in reply["shards"].values():
                counters = shard["metrics"]["counters"]
                assert counters.get("serving.faults", 0) == 0
                assert not shard["state"]["degraded"]
        finally:
            await server.stop()

    try:
        asyncio.run(scenario())
    finally:
        manager.stop()
