"""Edge update streams for the paper's edge-arrival model.

Section II-B: updates ``S_u = {e_1, e_2, ...}`` arrive stochastically;
the i-th update ``e_i = (u, v)`` transforms ``G_{i-1}`` into ``G_i`` —
as a *delete* if the edge currently exists, else as an *insert*.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.graph.digraph import DynamicGraph


@dataclass(frozen=True, slots=True)
class EdgeUpdate:
    """One edge arrival.

    ``kind`` records the *resolved* operation ("insert" or "delete")
    once applied; before application it may be "toggle", the paper's
    default semantics.
    """

    u: int
    v: int
    kind: str = "toggle"

    def apply(self, graph: DynamicGraph) -> "EdgeUpdate":
        """Apply this update to ``graph`` and return the resolved update.

        * ``toggle`` — insert if absent, delete if present.
        * ``insert`` / ``delete`` — explicit; a no-op insert of an
          existing edge or delete of a missing edge raises ValueError
          so silent divergence between a workload script and the graph
          state is caught early.
        """
        if self.kind == "toggle":
            inserted = graph.toggle_edge(self.u, self.v)
            return EdgeUpdate(self.u, self.v, "insert" if inserted else "delete")
        if self.kind == "insert":
            if not graph.add_edge(self.u, self.v):
                raise ValueError(f"edge ({self.u}, {self.v}) already present")
            return self
        if self.kind == "delete":
            graph.remove_edge(self.u, self.v)
            return self
        raise ValueError(f"unknown update kind: {self.kind!r}")


class UpdateStream:
    """A replayable sequence of edge updates.

    Wraps a list of :class:`EdgeUpdate` and applies them one at a time,
    keeping a cursor so callers (e.g. the queue simulator) can interleave
    updates with queries exactly as they arrive.
    """

    def __init__(self, updates: Sequence[EdgeUpdate]):
        self._updates = list(updates)
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._updates)

    def __iter__(self) -> Iterator[EdgeUpdate]:
        return iter(self._updates)

    def __getitem__(self, index: int) -> EdgeUpdate:
        return self._updates[index]

    @property
    def remaining(self) -> int:
        return len(self._updates) - self._cursor

    def apply_next(self, graph: DynamicGraph) -> EdgeUpdate | None:
        """Apply the next pending update to ``graph``; None when drained."""
        if self._cursor >= len(self._updates):
            return None
        resolved = self._updates[self._cursor].apply(graph)
        self._cursor += 1
        return resolved

    def apply_all(self, graph: DynamicGraph) -> list[EdgeUpdate]:
        """Apply every remaining update; returns the resolved updates."""
        resolved = []
        while (update := self.apply_next(graph)) is not None:
            resolved.append(update)
        return resolved

    def reset(self) -> None:
        """Rewind the cursor (the caller must supply a fresh graph)."""
        self._cursor = 0


def random_update_stream(
    graph: DynamicGraph,
    count: int,
    rng: random.Random | None = None,
) -> UpdateStream:
    """Generate ``count`` toggle updates with endpoints uniform over V.

    This matches the experimental setup of Section VIII-B: "each update
    (u, v) selects the two nodes u and v randomly from V_i".  The node
    set used is the *initial* node set of ``graph`` (updates never
    introduce brand-new nodes here, as in the paper's experiments).
    """
    rng = rng or random.Random()
    nodes = list(graph.nodes())
    if len(nodes) < 2:
        raise ValueError("need at least two nodes to generate updates")
    updates = []
    for _ in range(count):
        u, v = rng.sample(nodes, 2)
        updates.append(EdgeUpdate(u, v, "toggle"))
    return UpdateStream(updates)
