"""Workload trace persistence (CSV).

Real deployments replay recorded request logs (the paper extracts 100
events from the Wikipedia stream, records "the source node, request
type, and arrival time stamp", and replays them).  This module stores
and loads workloads in exactly that shape:

    # timestamp,kind,a,b,update_kind
    0.01314,query,42,,
    0.01892,update,17,205,toggle
    0.02105,update,17,205,delete

where ``a`` is the query source (queries) or the edge tail (updates),
``b`` the edge head (updates only), and ``update_kind`` the
:class:`~repro.graph.updates.EdgeUpdate` kind — ``toggle`` (resolve
against the live graph), or an explicit ``insert`` / ``delete``.  The
column matters for *resolved* traces: an explicit ``insert`` replayed
as a toggle flips to a delete whenever the edge already exists, so
dropping the kind silently changes replay semantics.

Legacy 4-column traces (without ``update_kind``) are still read; their
updates load as ``toggle``, which is exactly what the old writer
could express.  Blank ``update_kind`` cells on update rows mean
``toggle`` too; query rows must leave the column empty.
"""

from __future__ import annotations

import csv
import math
import os

from repro.graph.updates import EdgeUpdate
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.workload import Request, Workload

_HEADER = ["timestamp", "kind", "a", "b", "update_kind"]
#: pre-update_kind layout, still accepted on read (updates as toggle)
_LEGACY_HEADER = ["timestamp", "kind", "a", "b"]

_UPDATE_KINDS = frozenset({"toggle", "insert", "delete"})


def save_workload_trace(
    workload: Workload, path: str | os.PathLike[str]
) -> None:
    """Write a workload to a CSV trace file."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER)
        for request in workload:
            if request.kind == QUERY:
                writer.writerow(
                    [f"{request.arrival!r}", QUERY, request.source, "", ""]
                )
            else:
                update = request.update
                assert update is not None  # UPDATE requests carry one
                writer.writerow(
                    [
                        f"{request.arrival!r}",
                        UPDATE,
                        update.u,
                        update.v,
                        update.kind,
                    ]
                )


def load_workload_trace(
    path: str | os.PathLike[str], t_end: float | None = None
) -> Workload:
    """Load a workload from a CSV trace file.

    Parameters
    ----------
    path:
        Trace written by :func:`save_workload_trace` (or hand-authored
        in the same format).  Legacy 4-column traces load with every
        update as ``toggle``.
    t_end:
        Window length; defaults to the last timestamp in the trace.

    Raises
    ------
    ValueError
        On malformed rows, naming ``file:line``: bad kind, missing or
        extra fields, negative / NaN / infinite timestamps (a
        non-finite timestamp would silently poison the horizon and
        every derived arrival rate), or an unknown update kind.
    """
    requests: list[Request] = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty trace file")
        stripped = [h.strip() for h in header]
        if stripped == _HEADER:
            columns = len(_HEADER)
        elif stripped == _LEGACY_HEADER:
            columns = len(_LEGACY_HEADER)
        else:
            raise ValueError(
                f"{path}: expected header {_HEADER} "
                f"(or legacy {_LEGACY_HEADER}), got {header}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != columns:
                raise ValueError(
                    f"{path}:{line_no}: expected {columns} columns, "
                    f"got {len(row)}"
                )
            try:
                timestamp = float(row[0])
            except ValueError:
                raise ValueError(
                    f"{path}:{line_no}: bad timestamp {row[0]!r}"
                ) from None
            if not math.isfinite(timestamp):
                raise ValueError(
                    f"{path}:{line_no}: non-finite timestamp {timestamp}"
                )
            if timestamp < 0:
                raise ValueError(
                    f"{path}:{line_no}: negative timestamp {timestamp}"
                )
            kind = row[1].strip()
            update_kind = (
                row[4].strip() if columns == len(_HEADER) else ""
            )
            if kind == QUERY:
                if update_kind:
                    raise ValueError(
                        f"{path}:{line_no}: query rows must leave "
                        f"update_kind empty, got {update_kind!r}"
                    )
                requests.append(
                    Request(timestamp, QUERY, source=int(row[2]))
                )
            elif kind == UPDATE:
                update_kind = update_kind or "toggle"
                if update_kind not in _UPDATE_KINDS:
                    raise ValueError(
                        f"{path}:{line_no}: unknown update kind "
                        f"{update_kind!r} (expected one of "
                        f"{sorted(_UPDATE_KINDS)})"
                    )
                requests.append(
                    Request(
                        timestamp,
                        UPDATE,
                        update=EdgeUpdate(
                            int(row[2]), int(row[3]), update_kind
                        ),
                    )
                )
            else:
                raise ValueError(
                    f"{path}:{line_no}: unknown request kind {kind!r}"
                )
    requests.sort(key=lambda r: r.arrival)
    horizon = t_end if t_end is not None else (
        requests[-1].arrival if requests else 0.0
    )
    num_q = sum(1 for r in requests if r.kind == QUERY)
    num_u = len(requests) - num_q
    span = max(horizon, 1e-12)
    return Workload(requests, horizon, num_q / span, num_u / span)
