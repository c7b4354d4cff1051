"""Client samples -> end-to-end metrics and the client rows of the ledger.

The measured span is cut into equal windows (three of them everywhere
but the one-window traced and smoke profiles).  Every client timing is
computed once per window and the reported value is the **median of the
windows**; the per-window values are kept beside it.  ``fail_ratio`` is
the exception: it is taken over the whole span, because a median of
windows would hide a window in which requests failed.

A percentile is only meaningful from a sample that holds at least ten
values beyond it (`supports_percentile`).  ``query_p95_ms`` is therefore
windowed only when every window holds >= 200 answered queries and is
taken over the pooled span otherwise (``update_heavy``), and
``client.query_p99_ms`` is reported only by runs with >= 1000 of them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from statistics import median

import numpy as np

from benchmarks.e2e.loadgen import QUERY, UPDATE, Sample

MIN_SAMPLES_BEYOND = 10


def supports_percentile(count: int, q: float) -> bool:
    """True when ``count`` samples leave >= 10 of them beyond the q-th percentile."""
    return count * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile; NaN of nothing."""
    if not len(values):
        return math.nan
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else math.nan


def _window_of(t: float, window_s: float, windows: int) -> int | None:
    """Index of the measured window holding time ``t`` (None: outside)."""
    if t < 0.0:
        return None
    index = int(t // window_s)
    return index if index < windows else None


def latencies_ms(
    samples: Sequence[Sample], kind: str, window_s: float, windows: int
) -> list[list[float]]:
    """Per window, due -> last byte (ms) of the 200-status ``kind`` requests.

    A sample belongs to the window it was *due* in (closed loop: sent in).
    """
    series: list[list[float]] = [[] for _ in range(windows)]
    for sample in samples:
        if sample.kind == kind and sample.status == 200:
            w = _window_of(sample.due, window_s, windows)
            if w is not None:
                series[w].append((sample.done - sample.due) * 1e3)
    return series


def _median_of(per_window: list[float]) -> dict[str, object]:
    # median() would rank a NaN: a window without answers must surface
    empty = any(map(math.isnan, per_window))
    return {
        "value": math.nan if empty else median(per_window),
        "windows": per_window,
    }


def client_metrics(
    samples: Sequence[Sample], window_s: float, windows: int
) -> dict[str, dict[str, object]]:
    """What the client saw: ``{name: {value, windows}}``.

    Everything attempted in a measured window that did not end in a 200
    — other statuses, transport errors, no answer — counts as failed.
    """
    query_ms = latencies_ms(samples, QUERY, window_s, windows)
    update_ms = latencies_ms(samples, UPDATE, window_s, windows)
    # reply rate of a window: the replies whose last byte arrived inside
    # it, over the time from the first of them to the last — a rate as
    # measured, where replies / window length only counts the schedule
    arrived: list[list[float]] = [[] for _ in range(windows)]
    for s in samples:
        if s.kind == QUERY and s.status == 200:
            w = _window_of(s.done, window_s, windows)
            if w is not None:
                arrived[w].append(s.done)
    goodput = [
        (len(t) - 1) / (max(t) - min(t)) if len(t) > 1 else 0.0
        for t in arrived
    ]
    if all(supports_percentile(len(w), 95.0) for w in query_ms):
        p95 = _median_of([percentile(w, 95.0) for w in query_ms])
    else:
        p95 = {"value": percentile(sum(query_ms, []), 95.0), "windows": []}
    tally = counts(samples, window_s, windows)
    return {
        "query_p50_ms": _median_of([percentile(w, 50.0) for w in query_ms]),
        "query_p95_ms": p95,
        "query_mean_ms": _median_of([_mean(w) for w in query_ms]),
        "update_ack_p50_ms": _median_of(
            [percentile(w, 50.0) for w in update_ms]
        ),
        "goodput_rps": _median_of(goodput),
        "fail_ratio": {
            "value": (
                tally["failed"] / tally["attempted"]
                if tally["attempted"] else math.nan
            ),
            "windows": [],
        },
    }


def pooled(
    samples: Sequence[Sample], window_s: float, windows: int
) -> dict[str, float]:
    """Load-generator rows of the ledger, over the whole measured span.

    ``client.query_p99_ms`` is present only when the run holds ten
    samples beyond it.
    """
    query_ms = sum(latencies_ms(samples, QUERY, window_s, windows), [])
    answered = [
        s for s in samples
        if s.status == 200 and _window_of(s.due, window_s, windows) is not None
    ]
    rows = {
        # how late the generator sent what was due (closed loop: 0)
        "client.sched_lag_p99_ms": percentile(
            [(s.sent - s.due) * 1e3 for s in answered], 99.0
        ),
        "http.response_bytes_mean": _mean(
            [s.nbytes for s in answered if s.kind == QUERY]
        ),
    }
    if supports_percentile(len(query_ms), 99.0):
        rows["client.query_p99_ms"] = percentile(query_ms, 99.0)
    return rows


def counts(
    samples: Sequence[Sample], window_s: float, windows: int
) -> dict[str, int]:
    """Attempted / succeeded / failed over all measured windows."""
    measured = [
        s for s in samples if _window_of(s.due, window_s, windows) is not None
    ]
    succeeded = sum(1 for s in measured if s.status == 200)
    return {
        "attempted": len(measured),
        "succeeded": succeeded,
        "failed": len(measured) - succeeded,
        "queries": sum(1 for s in measured if s.kind == QUERY),
        "updates": sum(1 for s in measured if s.kind == UPDATE),
    }
