"""Single-threaded asyncio load generator over real sockets.

One event loop paces the whole schedule.  Open-loop requests are timed
from the instant they were *due*, so a stall in the generator or the
server is charged to every request it delayed; closed-loop clients send
their next request when the previous reply's last byte arrived.

The server closes every connection after one reply (``Connection:
close``), so each request is one connect / write / read-to-EOF exchange
driven by a bare ``asyncio.Protocol`` — cheaper than streams, and the
generator shares two cores with the three server processes.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from benchmarks.e2e.schedule import Schedule
from benchmarks.e2e.spec import BUDGET_S, DRAIN_S

QUERY, UPDATE = "q", "u"
HOST = "127.0.0.1"


@dataclass(slots=True)
class Sample:
    """One request as the client saw it.  Times are ``perf_counter``
    seconds relative to the start of the first measured window."""

    kind: str
    rid: int
    due: float
    sent: float
    done: float = float("nan")
    #: HTTP status; 0 = transport error, truncated or unanswered
    status: int = 0
    nbytes: int = 0
    #: updates: the fabric version the server assigned
    version: int = -1
    #: queries: the source asked; updates: the edge toggled
    source: int = -1
    u: int = -1
    v: int = -1


@dataclass(slots=True)
class LoadResult:
    samples: list[Sample] = field(default_factory=list)
    inflight_max: int = 0
    #: fleet-wide pending (Seed-deferred) updates, sampled at 1 Hz
    pending_updates: list[int] = field(default_factory=list)


class _Exchange(asyncio.Protocol):
    """Write one request, collect the reply until the server closes."""

    def __init__(self, request: bytes) -> None:
        self._request = request
        self._chunks: list[bytes] = []
        self.closed: asyncio.Future[float] = (
            asyncio.get_running_loop().create_future()
        )

    def connection_made(self, transport: asyncio.Transport) -> None:  # type: ignore[override]
        transport.write(self._request)

    def data_received(self, data: bytes) -> None:
        self._chunks.append(data)

    def connection_lost(self, exc: Exception | None) -> None:
        if not self.closed.done():
            self.closed.set_result(perf_counter())

    def reply(self) -> bytes:
        return b"".join(self._chunks)


def parse_reply(raw: bytes) -> tuple[int, bytes]:
    """``(status, body)``; status 0 when the reply is not whole."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep or not head.startswith(b"HTTP/1.1 "):
        return 0, b""
    marker = b"\r\nContent-Length: "
    at = head.find(marker)
    if at < 0:
        return 0, b""
    end = head.find(b"\r\n", at + len(marker))
    length = int(head[at + len(marker): end if end >= 0 else len(head)])
    if len(body) != length:
        return 0, b""
    return int(head[9:12]), body


async def exchange(port: int, request: bytes) -> tuple[float, bytes]:
    """One request/reply; returns (``perf_counter`` at last byte, raw reply)."""
    loop = asyncio.get_running_loop()
    _, protocol = await loop.create_connection(
        lambda: _Exchange(request), HOST, port
    )
    done = await protocol.closed
    return done, protocol.reply()


def query_request(
    source: int, top_k: int | None, rid: int | None
) -> bytes:
    target = f"/query?source={source}&budget_s={BUDGET_S}"
    if top_k is not None:
        target += f"&top_k={top_k}"
    if rid is not None:
        target += f"&rid={rid}"
    return f"GET {target} HTTP/1.1\r\nHost: {HOST}\r\n\r\n".encode()


def update_request(u: int, v: int, rid: int | None) -> bytes:
    payload: dict[str, int] = {"u": u, "v": v}
    if rid is not None:
        payload["rid"] = rid
    body = json.dumps(payload).encode()
    return (
        f"POST /update HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def get_request(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: {HOST}\r\n\r\n".encode()


async def get_json(port: int, path: str) -> tuple[int, dict[str, object]]:
    _, raw = await exchange(port, get_request(path))
    status, body = parse_reply(raw)
    return status, (json.loads(body) if body else {})


class LoadGenerator:
    """Plays one :class:`Schedule` against ``127.0.0.1:port``."""

    def __init__(
        self,
        port: int,
        schedule: Schedule,
        top_k: int | None,
        measured_s: float,
        tag_requests: bool,
    ) -> None:
        self._port = port
        self._schedule = schedule
        self._top_k = top_k
        self._measured_s = measured_s
        #: traced runs add a request id the tracing server reads back
        self._tag = tag_requests
        self._result = LoadResult()
        self._inflight = 0
        self._next_rid = 0
        self._t0 = 0.0
        self._tasks: set[asyncio.Task[None]] = set()

    async def run(self, warmup_s: float) -> LoadResult:
        """Warm up, measure, drain; returns every sample (warm-up has due < 0)."""
        self._t0 = perf_counter() + warmup_s
        sched = self._schedule
        runners = [asyncio.create_task(self._pace_open_loop())]
        runners.append(asyncio.create_task(self._sample_pending()))
        for row in sched.client_sources:
            runners.append(asyncio.create_task(self._closed_client(row)))
        try:
            await asyncio.gather(*runners)
            if self._tasks:
                await asyncio.wait(self._tasks, timeout=DRAIN_S)
        finally:
            # whatever is still out after the drain stays status 0: failed
            for task in [*runners, *self._tasks]:
                task.cancel()
            await asyncio.gather(
                *runners, *self._tasks, return_exceptions=True
            )
        return self._result

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return perf_counter() - self._t0

    def _rid(self) -> int:
        self._next_rid += 1
        return self._next_rid

    async def _pace_open_loop(self) -> None:
        sched = self._schedule
        due = np.concatenate([sched.query_due, sched.update_due])
        is_update = np.arange(len(due)) >= len(sched.query_due)
        order = np.argsort(due, kind="stable")
        n_q = len(sched.query_due)
        for i in order.tolist():
            delay = due[i] - self._now()
            if delay > 0:
                await asyncio.sleep(delay)
            if is_update[i]:
                j = i - n_q
                coro = self._update(
                    float(due[i]), int(sched.update_u[j]), int(sched.update_v[j])
                )
            else:
                coro = self._query(float(due[i]), int(sched.query_source[i]))
            task = asyncio.create_task(coro)
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _closed_client(self, sources: np.ndarray) -> None:
        i = 0
        while self._now() < self._measured_s:
            await self._query(None, int(sources[i % len(sources)]))
            i += 1

    async def _sample_pending(self) -> None:
        second = 0.5
        while second < self._measured_s:
            delay = second - self._now()
            if delay > 0:
                await asyncio.sleep(delay)
            status, health = await get_json(self._port, "/healthz")
            shards = health.get("shards")
            if status == 200 and isinstance(shards, list):
                self._result.pending_updates.append(
                    sum(int(s.get("pending_updates", 0)) for s in shards)
                )
            second += 1.0

    # ------------------------------------------------------------------
    async def _query(self, due: float | None, source: int) -> None:
        rid = self._rid()
        request = query_request(
            source, self._top_k, rid if self._tag else None
        )
        sent = self._now()
        sample = Sample(
            QUERY, rid, sent if due is None else due, sent, source=source
        )
        await self._send(sample, request)

    async def _update(self, due: float, u: int, v: int) -> None:
        rid = self._rid()
        request = update_request(u, v, rid if self._tag else None)
        sample = Sample(UPDATE, rid, due, self._now(), u=u, v=v)
        body = await self._send(sample, request)
        if sample.status == 200:
            sample.version = int(json.loads(body)["version"])

    async def _send(self, sample: Sample, request: bytes) -> bytes:
        result = self._result
        result.samples.append(sample)
        self._inflight += 1
        result.inflight_max = max(result.inflight_max, self._inflight)
        body = b""
        try:
            done, raw = await exchange(self._port, request)
            sample.done = done - self._t0
            sample.status, body = parse_reply(raw)
            sample.nbytes = len(body)
        except OSError:
            pass  # refused / reset: the sample keeps status 0
        finally:
            self._inflight -= 1
        return body
