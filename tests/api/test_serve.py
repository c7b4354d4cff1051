"""``repro serve --quota`` solves the fleet once before it serves.

``_serve`` runs in-process on the in-process backend with a stand-in
for the HTTP server, which scrapes ``GET /metrics`` once where the real
one would start accepting requests.
"""

import asyncio

from repro.api import serve
from repro.api.frontdoor import FrontDoor


class FirstScrape:
    """An ``HttpServer`` stand-in: serving is one ``/metrics`` scrape."""

    scraped = []

    def __init__(self, frontdoor, host, port):
        self.frontdoor = frontdoor
        self.port = port

    async def start(self):
        return self

    async def serve_forever(self):
        response = await self.frontdoor.metrics_snapshot()
        FirstScrape.scraped.append(response.body)

    async def stop(self):
        pass


def test_quota_fleet_is_solved_at_the_stated_rates_before_serving(monkeypatch):
    namespace = vars(serve)
    monkeypatch.setitem(namespace, "asyncio", asyncio)
    monkeypatch.setitem(namespace, "FrontDoor", FrontDoor)
    monkeypatch.setitem(namespace, "HttpServer", FirstScrape)
    monkeypatch.setattr(FirstScrape, "scraped", [])
    serve._bind_http_stack()
    args = serve.build_parser().parse_args(
        ["--dataset", "webs", "--shards", "2", "--backend", "inproc",
         "--quota", "--lambda-q", "12", "--lambda-u", "3"]
    )
    assert asyncio.run(serve._serve(args)) == 0
    (body,) = FirstScrape.scraped
    (entry,) = body["reconfigurations"]
    assert (entry["lambda_q"], entry["lambda_u"]) == (12.0, 3.0)
    assert set(entry["shards"]) == {"0", "1"}
    for reply in entry["shards"].values():
        assert reply["applied"] is True
