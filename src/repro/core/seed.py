"""Seed: FCFS-relaxing queue reordering with a bounded error budget.

Section VI: a query may overtake earlier-arrived, still-pending updates
as long as the *ordering inaccuracy* this introduces stays below the
threshold epsilon_r.  The per-update inaccuracy increment (Lemma 2) is

    (e(G, s) - alpha) (1 - alpha (1 - alpha))
    -----------------------------------------
            alpha^2  d_out(G', u)

with  e(G, s) = (d - alpha (1 - alpha) (d - 1)) / d,  d = d_out(G, s),
where s is the query source, u the tail of the pending edge update, and
G' the graph *after* that update.  Summing the increments over the
pending queue bounds |pi(G_{i+k}, s, t) - pi(G_i, s, t)| for every t.

:class:`SeedQueue` tracks the pending updates together with each one's
degree-dependent factor (using a pending-degree overlay so d_out(G', u)
is the post-update degree even though the graph has not been mutated
yet), evaluates the Lemma 2 bound per query source, and says when the
budget is exceeded — Algorithm 2's inner loop.  It never applies an
update: :func:`repro.queueing.replay.apply_head` applies the head and
then retires it with :meth:`SeedQueue.discard_one`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate


def degree_adjustment_factor(alpha: float, d_out_after: int) -> float:
    """The source-independent part of the Lemma 2 increment:
    (1 - alpha(1 - alpha)) / (alpha^2 * d_out(G', u))."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    d = max(d_out_after, 1)
    return (1.0 - alpha * (1.0 - alpha)) / (alpha * alpha * d)


def source_excess(alpha: float, d_out_source: int) -> float:
    """e(G, s) - alpha of Lemma 2 (in [0, 1 - alpha])."""
    d = max(d_out_source, 1)
    e = (d - alpha * (1.0 - alpha) * (d - 1)) / d
    return max(e - alpha, 0.0)


@dataclass(frozen=True, slots=True)
class PendingUpdate:
    """A deferred update plus its precomputed Lemma 2 factor and arrival.

    ``delta`` records the out-degree change (+1 insert / -1 delete) the
    update will cause at its tail node — needed to unwind the pending
    degree overlay when updates are flushed one at a time.
    """

    update: EdgeUpdate
    arrival: float
    factor: float
    delta: int = 0


class SeedQueue:
    """The pending-update queue U^p of Algorithm 2.

    Parameters
    ----------
    graph:
        The live graph (read-only here; the owning algorithm mutates
        it when a flush applies the pending updates).
    alpha:
        Teleport probability (enters the Lemma 2 bound).
    epsilon_r:
        Reorder error threshold.  0 disables reordering entirely:
        :meth:`should_flush` is then always True, restoring exact FCFS.
    """

    def __init__(
        self, graph: DynamicGraph, alpha: float, epsilon_r: float
    ) -> None:
        if epsilon_r < 0:
            raise ValueError("epsilon_r must be non-negative")
        self.graph = graph
        self.alpha = alpha
        self.epsilon_r = epsilon_r
        self._pending: deque[PendingUpdate] = deque()
        # net out-degree delta per node from pending (unapplied) updates
        self._degree_delta: dict[int, int] = {}
        # (u, v) pairs toggled an *odd* number of times by the pending
        # queue — O(1) pending-existence lookups regardless of depth
        self._parity: set[tuple[int, int]] = set()
        # running sum of the per-item Lemma 2 factors (reset to an exact
        # 0.0 whenever the queue empties, so float drift cannot build up
        # across flush cycles)
        self._factor_sum = 0.0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> list[PendingUpdate]:
        return list(self._pending)

    def peek(self) -> PendingUpdate | None:
        """The oldest pending update, or None — O(1), no copy."""
        return self._pending[0] if self._pending else None

    def _pending_out_degree(self, node: int) -> int:
        base = self.graph.out_degree(node) if self.graph.has_node(node) else 0
        return base + self._degree_delta.get(node, 0)

    def _edge_exists_pending(self, u: int, v: int) -> bool:
        """Edge existence after the pending queue would be applied.

        The parity set makes this O(1); the seed implementation scanned
        the whole pending list on every :meth:`add`, turning sustained
        overload — exactly the regime Seed targets — into O(n^2) queue
        growth.
        """
        return self.graph.has_edge(u, v) ^ ((u, v) in self._parity)

    def _toggle_parity(self, u: int, v: int) -> None:
        key = (u, v)
        if key in self._parity:
            self._parity.remove(key)
        else:
            self._parity.add(key)

    def add(self, update: EdgeUpdate, arrival: float = 0.0) -> PendingUpdate:
        """Defer an update; precompute its Lemma 2 factor.

        The factor uses d_out(G', u) where G' is the graph state after
        the pending prefix plus this update — tracked with the degree
        overlay, never by mutating the live graph.  Amortized O(1) in
        the pending-queue length.
        """
        u, v = update.u, update.v
        inserting = not self._edge_exists_pending(u, v)
        delta = 1 if inserting else -1
        d_after = max(self._pending_out_degree(u) + delta, 0)
        self._degree_delta[u] = self._degree_delta.get(u, 0) + delta
        self._toggle_parity(u, v)
        item = PendingUpdate(
            update,
            arrival,
            degree_adjustment_factor(self.alpha, d_after),
            delta,
        )
        self._pending.append(item)
        self._factor_sum += item.factor
        return item

    def error_bound(self, source: int) -> float:
        """e_sum(s): the accumulated ordering-inaccuracy bound (Alg. 2
        line 10) for a query from ``source`` over the stale graph."""
        if not self._pending:
            return 0.0
        excess = source_excess(self.alpha, self._pending_out_degree(source))
        return excess * self._factor_sum

    def should_flush(self, source: int) -> bool:
        """True when the query must wait for the pending updates."""
        # exact-zero sentinel: epsilon_r = 0 is the documented "disable
        # reordering" switch, set verbatim by callers — never computed.
        if self.epsilon_r == 0.0:
            return len(self._pending) > 0
        return self.error_bound(source) > self.epsilon_r

    def discard_one(self) -> PendingUpdate | None:
        """Retire the head update, unwinding overlay/parity bookkeeping;
        None when nothing is pending.

        The one way an update leaves the queue.
        :func:`~repro.queueing.replay.apply_head` calls it once the head
        has been applied; after an apply raises, the serving runtime
        calls it to drop the failing update and keep serving.  Either
        way every derived structure stays consistent with the
        *remaining* pending suffix; the graph is never touched here.
        """
        if not self._pending:
            return None
        item = self._pending.popleft()
        node = item.update.u
        remaining = self._degree_delta.get(node, 0) - item.delta
        if remaining:
            self._degree_delta[node] = remaining
        else:
            self._degree_delta.pop(node, None)
        self._toggle_parity(item.update.u, item.update.v)
        self._factor_sum -= item.factor
        if not self._pending:
            self._factor_sum = 0.0
        return item
