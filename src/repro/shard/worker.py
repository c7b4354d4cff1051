"""Shard worker: one ServingRuntime behind a command pipe.

:class:`ShardServer` is the transport-agnostic core — it owns the
replicated graph, the PPR algorithm, a
:class:`~repro.serving.runtime.ServingRuntime` (one thread, Seed
queue, optional :class:`~repro.cache.store.PPRCache`, optional
:class:`~repro.core.quota.QuotaController`), and turns commands into
replies.  Two hosts drive it:

* :func:`spawn_main` — what a worker process runs (``python -c``,
  started by :class:`~repro.shard.backend.ProcessShard`): it wraps the
  two inherited pipe descriptors, reads its
  :class:`~repro.shard.messages.ShardSpec` as the first message and
  enters :func:`shard_worker_main`.  Commands arrive on a simplex pipe;
  replies leave through an unbounded in-process queue drained by a
  dedicated sender thread, so the runtime's ``on_complete`` hook never
  blocks the runtime thread on pipe backpressure.  The loop ends on
  ``StopCommand`` or when the command pipe hits EOF, which is also how
  a worker learns its parent is gone.
* :class:`~repro.shard.backend.InprocShard` — the same server on a
  plain thread, used by deterministic tests and the in-memory
  transport.

Completion plumbing: every query is submitted with its network
``req_id`` as the request *tag*; the runtime's ``on_complete``
callback fires once per terminal record (ok / shed / timeout /
failed), and the server maps tagged records back into
:class:`~repro.shard.messages.ShardReply` payloads.  Updates carry no
tag — they are acked at admission (state, not answers) — and the
version-order contract is enforced *before* submission:
a gap or reordering in the broadcast sequence raises
:class:`~repro.shard.messages.UpdateOrderError` after an error reply,
killing the worker so the manager respawns it from the versioned log
instead of letting a diverged replica keep answering.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections.abc import Callable
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, NoReturn, cast

from repro.cache.store import PPRCache
from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.obs.metrics import MetricsRegistry, process_stats
from repro.ppr.base import PPRVector, WalkIndexOwner
from repro.ppr.power_iteration import ppr_exact
from repro.ppr.registry import build_algorithm
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.replay import QueryFn
from repro.queueing.workload import Request
from repro.serving.runtime import OK, ServedRequest, ServingRuntime
from repro.shard.messages import (
    Command,
    CrashCommand,
    HealthCommand,
    MetricsCommand,
    PackedPairs,
    QueryCommand,
    ReconfigureCommand,
    ShardReply,
    ShardSpec,
    StopCommand,
    UpdateCommand,
    UpdateOrderError,
)

if TYPE_CHECKING:
    from repro.core.quota import QuotaController

#: how long an update waits for admission before the shard declares
#: itself wedged (updates are state — dropping one would diverge)
UPDATE_ADMIT_TIMEOUT_S = 30.0


class SimulatedCrashError(RuntimeError):
    """In-process stand-in for a hard worker crash (tests)."""


def _exact_query_fn(alpha: float) -> QueryFn:
    """Deterministic power-iteration executor (equivalence oracle).

    Pure function of (graph snapshot, source): no RNG state, so two
    replicas at the same graph version answer bit-for-bit equally no
    matter how queries interleaved before this one.
    """

    def query(graph: DynamicGraph, source: int) -> object:
        return ppr_exact(graph, source, alpha)

    return query


def build_graph(spec: ShardSpec) -> DynamicGraph:
    """Materialize the replicated snapshot a spec describes."""
    return DynamicGraph.from_edge_array(spec.num_nodes, spec.edge_array())


def serialize_result(result: PPRVector, top_k: int | None) -> PackedPairs:
    """Reply-payload form of a query result.

    The entries :meth:`~repro.ppr.base.PPRVector.select` picks — the
    node-sorted strictly-positive entries of the full vector, or the
    ``top_k`` largest when a truncation was requested (the HTTP
    default, so payloads stay bounded on large graphs) — packed as
    int32 node ids and float64 values (exact), which the HTTP edge
    writes as the ``[[node, value], ...]`` JSON array.
    """
    return PackedPairs.from_arrays(*result.select(top_k))


class ShardServer:
    """Command loop body for one shard (transport supplied by host).

    Parameters
    ----------
    spec:
        Shard recipe; the graph is rebuilt locally from it.
    reply:
        Sink for outbound :class:`ShardReply` envelopes.  Must be
        non-blocking (the process host hands in an unbounded queue's
        ``put``).
    hard_crash:
        Invoked by :class:`CrashCommand`; the process host passes
        ``os._exit`` so the crash skips all cleanup.  ``None`` raises
        :class:`SimulatedCrashError` instead (in-process hosts).
    """

    def __init__(
        self,
        spec: ShardSpec,
        reply: Callable[[ShardReply], None],
        hard_crash: Callable[[], None] | None = None,
    ) -> None:
        self.spec = spec
        self.metrics = MetricsRegistry()
        self._reply = reply
        self._hard_crash = hard_crash
        self._applied_broadcasts = 0
        graph = build_graph(spec)
        algorithm = build_algorithm(
            spec.algorithm,
            graph,
            spec.walk_cap,
            seed=spec.seed,
            engine=spec.engine,
        )
        controller: QuotaController | None = None
        if spec.use_controller:
            # the only worker that needs the cost model and its
            # calibration probes is one started with --quota
            from repro.core.calibration import calibrated_cost_model
            from repro.core.quota import QuotaController

            model = calibrated_cost_model(
                algorithm,
                num_queries=spec.calibration_queries,
                rng=spec.seed + 1,
            )
            controller = QuotaController(
                model, extra_starts=[algorithm.get_hyperparameters()]
            )
        cache = (
            PPRCache(epsilon_c=spec.cache_epsilon, metrics=self.metrics)
            if spec.cache_epsilon is not None
            else None
        )
        query_fn: QueryFn | None = None
        if spec.query_mode == "exact":
            query_fn = _exact_query_fn(algorithm.params.alpha)
        self.runtime = ServingRuntime(
            algorithm,
            epsilon_r=spec.epsilon_r,
            queue_capacity=spec.queue_capacity,
            controller=controller,
            query_fn=query_fn,
            cache=cache,
            on_complete=self._on_record,
            metrics=self.metrics,
        )
        self._cache = cache
        # req_id -> requested top_k for queries awaiting completion
        self._meta: dict[int, int | None] = {}  # guarded-by: self._meta_lock
        self._meta_lock = threading.Lock()
        self.runtime.start()

    # ------------------------------------------------------------------
    @property
    def applied_broadcasts(self) -> int:
        """Fabric versions observed so far (gap-free by contract)."""
        return self._applied_broadcasts

    def _on_record(self, record: ServedRequest) -> None:
        """Runtime completion hook: map tagged records to replies.

        Runs on the runtime thread (a shed: on the command-loop thread)
        — keep it allocation-light and never block.
        """
        tag = record.request.tag
        if tag is None or record.request.kind != QUERY:
            return
        with self._meta_lock:
            top_k = self._meta.pop(tag, None)
        payload: dict[str, object] = {
            "status": record.status,
            "version": record.version,
            "cached": record.cached,
            "shed_reason": record.shed_reason,
            "response_s": record.response_s,
        }
        if record.status == OK:
            payload["values"] = serialize_result(
                cast(PPRVector, record.result), top_k
            )
        self._reply(
            ShardReply(
                tag,
                self.spec.shard_id,
                record.status == OK,
                payload,
                error=record.error,
            )
        )

    # ------------------------------------------------------------------
    def handle(self, command: Command) -> bool:
        """Process one command; False ends the host's loop."""
        if isinstance(command, QueryCommand):
            self._handle_query(command)
        elif isinstance(command, UpdateCommand):
            self._handle_update(command)
        elif isinstance(command, ReconfigureCommand):
            self._handle_reconfigure(command)
        elif isinstance(command, MetricsCommand):
            self._reply(
                ShardReply(
                    command.req_id, self.spec.shard_id, True, self._snapshot()
                )
            )
        elif isinstance(command, HealthCommand):
            self._reply(
                ShardReply(
                    command.req_id, self.spec.shard_id, True, self._health()
                )
            )
        elif isinstance(command, StopCommand):
            self.runtime.stop()
            self._reply(
                ShardReply(
                    command.req_id, self.spec.shard_id, True, {"stopped": True}
                )
            )
            return False
        elif isinstance(command, CrashCommand):
            if self._hard_crash is not None:
                self._hard_crash()
            raise SimulatedCrashError(
                f"shard {self.spec.shard_id} crashed on command"
            )
        else:  # pragma: no cover - future-proofing
            self._reply(
                ShardReply(
                    getattr(command, "req_id", -1),
                    self.spec.shard_id,
                    False,
                    {},
                    error=f"unknown command {type(command).__name__}",
                )
            )
        return True

    # ------------------------------------------------------------------
    def _handle_query(self, command: QueryCommand) -> None:
        with self._meta_lock:
            self._meta[command.req_id] = command.top_k
        request = Request(
            time.perf_counter(), QUERY, source=command.source,
            tag=command.req_id,
        )
        # a shed submission records SHED -> _on_record already replied
        self.runtime.submit(request, deadline_s=command.budget_s)

    def _refuse_update(self, command: UpdateCommand, message: str) -> NoReturn:
        """Reply with the error, then die rather than diverge."""
        self._reply(
            ShardReply(
                command.req_id, self.spec.shard_id, False, {}, error=message
            )
        )
        raise UpdateOrderError(message)

    def _handle_update(self, command: UpdateCommand) -> None:
        expected = self._applied_broadcasts + 1
        if command.version != expected:
            self._refuse_update(
                command,
                f"shard {self.spec.shard_id} received update version "
                f"{command.version}, expected {expected}: broadcast order "
                "violated; refusing to diverge",
            )
        update = EdgeUpdate(command.u, command.v, command.kind)
        request = Request(time.perf_counter(), UPDATE, update=update)
        # updates are never dropped: a full queue blocks this (the
        # command-loop) thread until a worker makes room
        if not self.runtime.submit(request, wait_s=UPDATE_ADMIT_TIMEOUT_S):
            self._refuse_update(
                command,
                f"shard {self.spec.shard_id} failed to admit update "
                f"version {command.version} within "
                f"{UPDATE_ADMIT_TIMEOUT_S}s",
            )
        self._applied_broadcasts = command.version
        self._reply(
            ShardReply(
                command.req_id,
                self.spec.shard_id,
                True,
                {"version": command.version, "accepted": True},
            )
        )

    def _handle_reconfigure(self, command: ReconfigureCommand) -> None:
        decision = self.runtime.reconfigure(command.lambda_q, command.lambda_u)
        if decision is None:
            payload: dict[str, object] = {"applied": False}
        else:
            payload = {
                "applied": True,
                "beta": dict(decision.beta),
                "regime": decision.regime,
                "predicted_response_time": decision.predicted_response_time,
            }
        self._reply(
            ShardReply(command.req_id, self.spec.shard_id, True, payload)
        )

    # ------------------------------------------------------------------
    def _health(self) -> dict[str, object]:
        return {
            "healthy": True,
            "shard_id": self.spec.shard_id,
            "applied_broadcasts": self._applied_broadcasts,
            "graph_version": self.runtime.algorithm.graph.version,
            "queue_depth": self.runtime.queue_depth,
            "pending_updates": self.runtime.pending_updates,
            "degraded": self.runtime.degraded,
        }

    def _snapshot(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "metrics": self.metrics.snapshot(),
            "state": self._health(),
            "process": process_stats(),
        }
        if self._cache is not None:
            payload["cache"] = self._cache.stats()
        algorithm = self.runtime.algorithm
        if isinstance(algorithm, WalkIndexOwner):
            payload["index"] = algorithm.index_stats()
        return payload


def _drain_replies(
    outbox: "queue.SimpleQueue[ShardReply | None]", conn: "Connection"
) -> None:
    """Sender-thread body: forward replies until the None sentinel."""
    while True:
        reply = outbox.get()
        if reply is None:
            return
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # manager went away
            return


def shard_worker_main(
    spec: ShardSpec, cmd_conn: "Connection", reply_conn: "Connection"
) -> None:
    """Process entry point: loop commands until stop/EOF/crash.

    The reply pipe is written by exactly one sender thread; the
    command pipe is read by exactly this (main) thread — each
    connection end stays single-threaded, the documented safe usage.
    """
    outbox: "queue.SimpleQueue[ShardReply | None]" = queue.SimpleQueue()
    sender = threading.Thread(
        target=_drain_replies,
        args=(outbox, reply_conn),
        name=f"shard-{spec.shard_id}-sender",
        daemon=True,
    )
    sender.start()
    server = ShardServer(
        spec, reply=outbox.put, hard_crash=lambda: os._exit(13)
    )
    try:
        while True:
            try:
                command = cmd_conn.recv()
            except (EOFError, OSError):
                break
            if not server.handle(command):
                break
    finally:
        outbox.put(None)
        sender.join(timeout=5.0)
        reply_conn.close()


def spawn_main(cmd_fd: int, reply_fd: int) -> None:
    """Worker-process body: the spec is the first command-pipe message.

    ``cmd_fd`` / ``reply_fd`` are the inherited pipe ends.  A parent
    that died before sending the spec leaves EOF; the worker then just
    exits.
    """
    cmd_conn = Connection(cmd_fd, writable=False)
    reply_conn = Connection(reply_fd, readable=False)
    try:
        spec = cmd_conn.recv()
    except (EOFError, OSError):
        return
    shard_worker_main(spec, cmd_conn, reply_conn)
