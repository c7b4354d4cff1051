"""Shard worker: one ServingRuntime behind a command pipe, on one thread.

:class:`ShardServer` is the transport-agnostic core — it owns the
replicated graph, the PPR algorithm, a
:class:`~repro.serving.runtime.ServingRuntime` (Seed queue, optional
:class:`~repro.cache.store.PPRCache`, optional
:class:`~repro.core.quota.QuotaController`), and turns commands into
replies.  :meth:`ShardServer.serve` runs the runtime's loop on the
caller's thread with a host-supplied source of commands, so one thread
reads a command, serves it and writes its reply.  Two hosts drive it:

* :func:`spawn_main` — what a worker process runs (``python -c``,
  started by :class:`~repro.shard.backend.ProcessShard`): it wraps the
  two inherited pipe descriptors, reads its
  :class:`~repro.shard.messages.ShardSpec` as the first message and
  serves the command pipe (:meth:`ShardServer.serve_pipe`) on its main
  thread, which is the process's only Python thread.  The loop reads
  the pipe before each admission poll and waits on it when idle, and
  writes every reply itself.  It ends on ``StopCommand`` or when the
  command pipe hits EOF, which is also how a worker learns its parent
  is gone.
* :class:`~repro.shard.backend.InprocShard` — the same server on a
  plain thread reading an in-process queue, used by deterministic tests
  and the in-memory transport.

Completion plumbing: every query is submitted with its
:class:`~repro.shard.messages.QueryCommand` as the request *tag*; the
runtime's ``on_complete`` callback fires once per terminal record (ok /
shed / timeout / failed), and the server maps tagged records back into
:class:`~repro.shard.messages.ShardReply` payloads.  Updates carry no
tag — they are acked at admission (state, not answers; an update is
never shed) — and the version-order contract is enforced *before*
submission: a gap or reordering in the broadcast sequence raises
:class:`~repro.shard.messages.UpdateOrderError` after an error reply,
killing the worker so the manager respawns it from the versioned log
instead of letting a diverged replica keep answering.  ``/metrics``,
``/healthz`` and reconfigure commands are answered between two
requests, on the thread that mutates what they read.
"""

from __future__ import annotations

import array
import fcntl
import os
import termios
import time
from collections.abc import Callable
from multiprocessing.connection import Connection, wait
from typing import TYPE_CHECKING, NoReturn, cast

from repro.cache.store import PPRCache, TopKAnswer
from repro.graph.digraph import DynamicGraph
from repro.graph.updates import EdgeUpdate
from repro.obs.metrics import MetricsRegistry, process_stats
from repro.ppr.base import PPRVector, WalkIndexOwner
from repro.ppr.power_iteration import ppr_exact
from repro.ppr.registry import build_algorithm
from repro.queueing.kinds import QUERY, UPDATE
from repro.queueing.replay import QueryFn
from repro.queueing.workload import Request
from repro.serving.runtime import OK, ServedRequest, ServingRuntime, Source
from repro.shard.heap import HeapRelease
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


def serialize_result(
    result: PPRVector | TopKAnswer, top_k: int | None
) -> PackedPairs:
    """Reply-payload form of a query result.

    The entries :meth:`~repro.ppr.base.PPRVector.select` picks — the
    node-sorted strictly-positive entries of the full vector, or the
    ``top_k`` largest when a truncation was requested (the HTTP
    default, so payloads stay bounded on large graphs) — packed as
    int32 node ids and float64 values (exact), which the HTTP edge
    writes as the ``[[node, value], ...]`` JSON array.  A top-k answer
    the result cache served or admitted
    (:class:`~repro.cache.store.TopKAnswer`) already holds that
    selection and is packed as it is.
    """
    if isinstance(result, TopKAnswer):
        return PackedPairs.from_arrays(result.nodes, result.values)
    return PackedPairs.from_arrays(*result.select(top_k))


class ShardServer:
    """Command handling for one shard (transport supplied by host).

    Parameters
    ----------
    spec:
        Shard recipe; the graph is rebuilt locally from it.  The server
        keeps none of it, so its packed ``edges`` can be freed once the
        graph is built (the manager keeps the copy a respawn ships).
    reply:
        Sink for outbound :class:`ShardReply` envelopes, called on the
        thread that serves (the process host writes the reply pipe).
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
        self.shard_id = spec.shard_id
        self.metrics = MetricsRegistry()
        self._reply = reply
        self._hard_crash = hard_crash
        self._applied_broadcasts = 0
        #: req id of the StopCommand that closed the source, if any
        self._stop_req: int | None = None
        graph = build_graph(spec)
        algorithm = build_algorithm(
            spec.algorithm, graph, spec.walk_cap, seed=spec.seed
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
            controller = QuotaController(model)
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
        #: what :meth:`serve_pipe` calls before it blocks on an empty pipe
        self.heap = HeapRelease(self.metrics)

    # ------------------------------------------------------------------
    def serve(self, take: Source) -> None:
        """Serve on this thread until ``take`` closes; then answer the
        StopCommand that closed it (after the work it let finish)."""
        self.runtime.run(take)
        if self._stop_req is not None:
            self._answer(self._stop_req, {"stopped": True})

    def serve_pipe(self, conn: Connection) -> None:
        """Serve the commands arriving on ``conn`` until stop or EOF.

        At each look the loop reads how many bytes wait in the pipe
        (``FIONREAD``) into the ``serving.pipe_backlog_bytes`` gauge:
        a command's ``serving.wait`` starts when it is read, so this is
        where time spent queued in the pipe shows.  Before it blocks on
        an empty pipe it lets :attr:`heap` give freed heap back to the
        OS (:class:`~repro.shard.heap.HeapRelease`): the runtime asks
        to block only once its queue and Seed's deferred updates are
        empty, so a release never delays a request.
        """
        backlog = self.metrics.gauge("serving.pipe_backlog_bytes")
        readable = array.array("i", [0])
        fd = conn.fileno()

        def take(timeout_s: float) -> bool:
            while True:
                fcntl.ioctl(fd, termios.FIONREAD, readable)
                backlog.set(readable[0])
                if not readable[0]:
                    if timeout_s <= 0:
                        return True
                    self.heap.on_idle()
                    if not wait([conn], timeout_s):
                        return True
                timeout_s = 0.0  # woken: read what came (or the EOF)
                try:
                    command = conn.recv()
                except (EOFError, OSError):
                    return False
                if not self.handle(command):
                    return False

        self.serve(take)

    # ------------------------------------------------------------------
    @property
    def applied_broadcasts(self) -> int:
        """Fabric versions observed so far (gap-free by contract)."""
        return self._applied_broadcasts

    def _on_record(self, record: ServedRequest) -> None:
        """Runtime completion hook: map tagged records to replies."""
        command = record.request.tag
        if not isinstance(command, QueryCommand):
            return
        payload: dict[str, object] = {
            "status": record.status,
            "version": record.version,
            "cached": record.cached,
            "shed_reason": record.shed_reason,
            "response_s": record.response_s,
        }
        if record.status == OK:
            payload["values"] = serialize_result(
                cast("PPRVector | TopKAnswer", record.result), command.top_k
            )
        self._answer(command.req_id, payload, record.status == OK, record.error)

    def _answer(
        self,
        req_id: int,
        payload: dict[str, object],
        ok: bool = True,
        error: str | None = None,
    ) -> None:
        self._reply(ShardReply(req_id, self.shard_id, ok, payload, error))

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
            self._answer(command.req_id, self._snapshot())
        elif isinstance(command, HealthCommand):
            self._answer(command.req_id, self._health())
        elif isinstance(command, StopCommand):
            self._stop_req = command.req_id
            return False
        elif isinstance(command, CrashCommand):
            if self._hard_crash is not None:
                self._hard_crash()
            raise SimulatedCrashError(
                f"shard {self.shard_id} crashed on command"
            )
        else:  # pragma: no cover - future-proofing
            self._answer(
                getattr(command, "req_id", -1), {}, False,
                f"unknown command {type(command).__name__}",
            )
        return True

    # ------------------------------------------------------------------
    def _handle_query(self, command: QueryCommand) -> None:
        request = Request(
            time.perf_counter(),
            QUERY,
            source=command.source,
            tag=command,
            top_k=command.top_k,
        )
        # a shed submission records SHED -> _on_record already replied
        self.runtime.submit(request, deadline_s=command.budget_s)

    def _refuse_update(self, command: UpdateCommand, message: str) -> NoReturn:
        """Reply with the error, then die rather than diverge."""
        self._answer(command.req_id, {}, False, message)
        raise UpdateOrderError(message)

    def _handle_update(self, command: UpdateCommand) -> None:
        expected = self._applied_broadcasts + 1
        if command.version != expected:
            self._refuse_update(
                command,
                f"shard {self.shard_id} received update version "
                f"{command.version}, expected {expected}: broadcast order "
                "violated; refusing to diverge",
            )
        update = EdgeUpdate(command.u, command.v, command.kind)
        # an update is always admitted: it is never shed and never waits
        self.runtime.submit(
            Request(time.perf_counter(), UPDATE, update=update)
        )
        self._applied_broadcasts = command.version
        self._answer(
            command.req_id, {"version": command.version, "accepted": True}
        )

    def _handle_reconfigure(self, command: ReconfigureCommand) -> None:
        try:
            decision = self.runtime.reconfigure(
                command.lambda_q, command.lambda_u
            )
        except Exception as exc:  # a bad solve must not end the worker
            self._answer(
                command.req_id, {}, False, f"reconfigure failed: {exc!r}"
            )
            return
        if decision is None:
            payload: dict[str, object] = {"applied": False}
        else:
            payload = {
                "applied": True,
                "lambda_q": command.lambda_q,
                "lambda_u": command.lambda_u,
                "beta": dict(decision.beta),
                "regime": decision.regime,
                "traffic_intensity": decision.traffic_intensity,
                "predicted_response_time": decision.predicted_response_time,
            }
        self._answer(command.req_id, payload)

    # ------------------------------------------------------------------
    def _health(self) -> dict[str, object]:
        return {
            "healthy": True,
            "shard_id": self.shard_id,
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


def spawn_main(cmd_fd: int, reply_fd: int) -> None:
    """Worker-process body: the spec is the first command-pipe message.

    ``cmd_fd`` / ``reply_fd`` are the inherited pipe ends.  A parent
    that died before sending the spec leaves EOF; the worker then just
    exits.  Everything after runs on this, the process's one thread.
    """
    cmd_conn = Connection(cmd_fd, writable=False)
    reply_conn = Connection(reply_fd, readable=False)
    try:
        spec = cmd_conn.recv()
    except (EOFError, OSError):
        return

    def send(reply: ShardReply) -> None:
        try:
            reply_conn.send(reply)
        except OSError:  # the manager went away; EOF on commands follows
            pass

    server = ShardServer(spec, send, hard_crash=lambda: os._exit(13))
    del spec  # frees the packed edges: the graph holds the structure now
    server.serve_pipe(cmd_conn)
    reply_conn.close()
