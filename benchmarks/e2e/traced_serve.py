"""``repro serve`` with spans recorded around each layer boundary.

Run as a supervised child: ``python benchmarks/e2e/traced_serve.py
<serve argv...>``.  It swaps timing subclasses of ``HttpServer``,
``FrontDoor`` and ``ShardManager`` into :mod:`repro.api.serve`'s
namespace and then calls ``repro.api.serve.main(argv)`` unchanged, so
the traced fleet is by construction whatever ``serve`` builds.  Nothing
in ``src/`` is patched.

A span is ``(req, name, parent, start, end)`` in ``perf_counter``
seconds (``CLOCK_MONOTONIC``: the load generator's clock too).  ``req``
is the ``rid`` the load generator put on the request; it travels from
the HTTP layer to the layers below in a context variable — each
connection is served by its own task, hence its own context.  Spans
stay in memory and are written to ``$E2E_TRACE_OUT`` when ``main``
returns.

Span tree of one query, outermost first::

    client (load generator)  >  frontdoor.query  >  manager.query
                                                    >  serving.response

``manager.query`` lasts until the reply future resolves.
``serving.response`` is the worker's own submitted->finished time as
the reply reports it (``response_s``), placed so that it ends with its
parent; what is left of ``manager.query`` is pickling, pipes, the
receiver/sender threads and ``serialize_result``.  An update is
``client > frontdoor.update > manager.update``; the manager span runs on
an executor thread, which sees no context, so it is keyed by the fabric
version it returns and tied to its request when the front door reads
that version from the reply.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import Future
from contextvars import ContextVar
from time import perf_counter

import repro.api.serve as serve
from repro.api.frontdoor import ApiResponse, FrontDoor
from repro.api.http import HttpServer
from repro.shard.manager import QueryOutcome, ShardManager, UpdateOutcome

Span = tuple[int, str, str, float, float]

_REQ: ContextVar[int] = ContextVar("e2e_req", default=-1)
#: finished spans; list.append is atomic, so transport threads may add
SPANS: list[Span] = []
#: manager.update spans waiting for their request: version -> (start, end)
_UPDATE_SPANS: dict[int, tuple[float, float]] = {}


class TracedHttpServer(HttpServer):
    """Reads the load generator's ``rid`` into the request context."""

    async def _query(
        self, params: dict[str, list[str]], received_s: float
    ) -> ApiResponse:
        rid = params.get("rid")
        if rid:
            _REQ.set(int(rid[0]))
        return await super()._query(params, received_s)

    async def _update(self, body: bytes) -> ApiResponse:
        try:
            _REQ.set(int(json.loads(body)["rid"]))
        except (ValueError, KeyError, TypeError):
            pass  # untagged or malformed: the base class answers it
        return await super()._update(body)


class TracedFrontDoor(FrontDoor):
    async def query(
        self,
        source: int,
        budget_s: float | None = None,
        top_k: int | None = None,
        received_s: float | None = None,
    ) -> ApiResponse:
        start = perf_counter()
        response = await super().query(source, budget_s, top_k, received_s)
        SPANS.append((_REQ.get(), "frontdoor.query", "client", start, perf_counter()))
        return response

    async def update(self, u: int, v: int, kind: str = "toggle") -> ApiResponse:
        start = perf_counter()
        response = await super().update(u, v, kind)
        end = perf_counter()
        req = _REQ.get()
        SPANS.append((req, "frontdoor.update", "client", start, end))
        version = response.body.get("version")
        child = _UPDATE_SPANS.pop(version, None) if isinstance(version, int) else None
        if child is not None:
            SPANS.append((req, "manager.update", "frontdoor.update", *child))
        return response


class TracedShardManager(ShardManager):
    def query(
        self,
        source: int,
        deadline_s: float | None = None,
        top_k: int | None = None,
    ) -> "Future[QueryOutcome]":
        req = _REQ.get()
        start = perf_counter()
        future = super().query(source, deadline_s, top_k)

        def _finished(done: "Future[QueryOutcome]") -> None:
            end = perf_counter()
            SPANS.append((req, "manager.query", "frontdoor.query", start, end))
            outcome = done.result()
            if outcome.ok:
                SPANS.append(
                    (
                        req, "serving.response", "manager.query",
                        end - outcome.response_s, end,
                    )
                )

        future.add_done_callback(_finished)
        return future

    def update(
        self, u: int, v: int, kind: str = "toggle", timeout_s: float = 60.0
    ) -> UpdateOutcome:
        start = perf_counter()
        outcome = super().update(u, v, kind, timeout_s)
        _UPDATE_SPANS[outcome.version] = (start, perf_counter())
        return outcome


def main(argv: list[str]) -> int:
    serve.HttpServer = TracedHttpServer  # type: ignore[misc]
    serve.FrontDoor = TracedFrontDoor  # type: ignore[misc]
    serve.ShardManager = TracedShardManager  # type: ignore[misc]
    try:
        return serve.main(argv)
    finally:
        with open(os.environ["E2E_TRACE_OUT"], "w", encoding="utf-8") as out:
            json.dump(SPANS, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
