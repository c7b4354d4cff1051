"""Spans of a traced run -> per-layer self times.

A layer's self time is its span minus the child span it caused (each
span here has at most one child; see ``traced_serve.py`` for the tree).
The client span is the load generator's own send -> last byte interval.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path
from statistics import median

from benchmarks.e2e.loadgen import QUERY, Sample

#: (metric, span, child) — self time of ``span`` is its length minus ``child``'s
_SELF_TIMES = (
    ("http.self_p50_ms", "client.query", "frontdoor.query"),
    ("frontdoor.query_self_p50_ms", "frontdoor.query", "manager.query"),
    ("shard.ipc_p50_ms", "manager.query", "serving.response"),
    ("frontdoor.update_self_p50_ms", "frontdoor.update", "manager.update"),
    ("shard.broadcast_p50_ms", "manager.update", None),
)


def layer_metrics(
    spans_path: Path, samples: Sequence[Sample]
) -> dict[str, float]:
    """The ``T`` rows of the ledger, over measured 200-status requests."""
    with open(spans_path, encoding="utf-8") as handle:
        spans = json.load(handle)
    by_request: dict[int, dict[str, float]] = {}
    for req, name, _parent, start, end in spans:
        by_request.setdefault(req, {})[name] = end - start
    for sample in samples:
        if sample.due >= 0.0 and sample.status == 200:
            kind = "query" if sample.kind == QUERY else "update"
            by_request.setdefault(sample.rid, {})[f"client.{kind}"] = (
                sample.done - sample.sent
            )

    self_ms: dict[str, list[float]] = {name: [] for name, _, _ in _SELF_TIMES}
    nested = chains = 0
    for lengths in by_request.values():
        if not any(name.startswith("client.") for name in lengths):
            continue  # warm-up, health probes, check queries
        chains += 1
        inside = True
        for metric, span, child in _SELF_TIMES:
            if span not in lengths or (child and child not in lengths):
                continue
            inner = lengths[child] if child else 0.0
            self_ms[metric].append((lengths[span] - inner) * 1e3)
            inside = inside and lengths[span] >= inner
        nested += inside
    metrics = {
        name: median(values) if values else 0.0
        for name, values in self_ms.items()
    }
    metrics["trace.nested_ratio"] = nested / chains if chains else 0.0
    return metrics
