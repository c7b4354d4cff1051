"""Shard transports: the same command protocol over two substrates.

* :class:`ProcessShard` — a real worker **process**: a plain
  ``python -c`` child (:func:`repro.shard.launch.python_child` — never
  a fork of this threaded parent, and no ``multiprocessing`` bootstrap
  around it).  Commands go down one simplex pipe, replies come back on
  another.  The :class:`~repro.shard.messages.ShardSpec` is the first
  message on the command pipe.  The worker runs one Python thread,
  which reads the command pipe between requests, serves, and writes the
  reply pipe; on this side a send lock serializes the command pipe and
  one receiver thread reads the reply pipe.  This is the backend that
  escapes the GIL: every shard has its own interpreter, so PPR compute
  parallelizes across cores.
* :class:`InprocShard` — the identical :class:`~repro.shard.worker.ShardServer`
  on one plain thread in this process, reading an in-process queue
  where a worker reads its pipe.  Deterministic (no pickling, no
  scheduler variance beyond threads), instant startup; the backend the
  unit tests and the in-memory front-door transport use.

Both present one future-based interface: ``submit(command)`` returns a
:class:`concurrent.futures.Future` resolved with the worker's
:class:`~repro.shard.messages.ShardReply`; a dead shard fails every
pending and future submission with
:class:`~repro.shard.messages.ShardUnavailableError`, and fires the
``on_death`` callback exactly once so the manager can shed the range
and respawn.
"""

from __future__ import annotations

import os
import queue
import subprocess
import threading
from abc import ABC, abstractmethod
from collections.abc import Callable
from concurrent.futures import Future
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING

from repro.graph.updates import EdgeUpdate
from repro.shard.launch import python_child
from repro.shard.messages import (
    Command,
    CrashCommand,
    HealthCommand,
    MetricsCommand,
    QueryCommand,
    ReconfigureCommand,
    ShardReply,
    ShardSpec,
    ShardUnavailableError,
    StopCommand,
    UpdateCommand,
)

if TYPE_CHECKING:
    from repro.shard.worker import ShardServer

#: how long a worker whose reply pipe hit EOF gets to finish exiting
#: before it is killed (the receiver thread reaps it either way)
REAP_TIMEOUT_S = 10.0

ReplyFuture = Future  # Future[ShardReply]; bare for runtime generics

DeathCallback = Callable[["ShardHandle", str], None]


class ShardHandle(ABC):
    """Future-based client for one shard worker."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.shard_id = spec.shard_id
        self._next_req = 0  # guarded-by: self._pending_lock
        self._pending: dict[int, ReplyFuture] = {}  # guarded-by: self._pending_lock
        self._pending_lock = threading.Lock()
        self._dead = threading.Event()
        self._death_reason = ""
        self.on_death: DeathCallback | None = None

    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        return not self._dead.is_set()

    @property
    def death_reason(self) -> str:
        return self._death_reason

    def submit(self, build: Callable[[int], Command]) -> ReplyFuture:
        """Assign a req id, register a future, send the command.

        ``build`` receives the fresh req id and returns the command —
        exposed at this level so tests can inject protocol-violating
        commands (e.g. out-of-order update versions) directly.
        """
        future: ReplyFuture = Future()
        if self._dead.is_set():
            future.set_exception(
                ShardUnavailableError(
                    f"shard {self.shard_id} is down: {self._death_reason}"
                )
            )
            return future
        with self._pending_lock:
            req_id = self._next_req
            self._next_req += 1
            self._pending[req_id] = future
        command = build(req_id)
        try:
            self._send(command)
        except ShardUnavailableError as exc:
            with self._pending_lock:
                self._pending.pop(req_id, None)
            if not future.done():
                future.set_exception(exc)
        return future

    # -- typed convenience wrappers ------------------------------------
    def query(
        self,
        source: int,
        budget_s: float | None = None,
        top_k: int | None = None,
    ) -> ReplyFuture:
        return self.submit(
            lambda rid: QueryCommand(rid, source, budget_s, top_k)
        )

    def update(self, version: int, update: EdgeUpdate) -> ReplyFuture:
        return self.submit(
            lambda rid: UpdateCommand(
                rid, version, update.u, update.v, update.kind
            )
        )

    def reconfigure(self, lambda_q: float, lambda_u: float) -> ReplyFuture:
        return self.submit(
            lambda rid: ReconfigureCommand(rid, lambda_q, lambda_u)
        )

    def metrics(self) -> ReplyFuture:
        return self.submit(lambda rid: MetricsCommand(rid))

    def health(self) -> ReplyFuture:
        return self.submit(lambda rid: HealthCommand(rid))

    def crash(self) -> None:
        """Failure injection: make the worker die without cleanup."""
        try:
            self.submit(lambda rid: CrashCommand(rid))
        except ShardUnavailableError:
            pass

    # ------------------------------------------------------------------
    def _resolve(self, reply: ShardReply) -> None:
        with self._pending_lock:
            future = self._pending.pop(reply.req_id, None)
        if future is not None and not future.done():
            future.set_result(reply)

    def _mark_dead(self, reason: str) -> None:
        if self._dead.is_set():
            return
        self._death_reason = reason
        self._dead.set()
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        error = ShardUnavailableError(
            f"shard {self.shard_id} died: {reason}"
        )
        for future in pending:
            if not future.done():
                future.set_exception(error)
        callback = self.on_death
        if callback is not None:
            try:
                callback(self, reason)
            except Exception:  # pragma: no cover - observer must not kill us
                pass

    # -- transport obligations ----------------------------------------
    @abstractmethod
    def _send(self, command: Command) -> None:
        """Deliver one command to the worker (raise ShardUnavailable)."""

    @abstractmethod
    def stop(self, timeout_s: float = 30.0) -> None:
        """Graceful shutdown; safe to call on a dead shard."""

    @abstractmethod
    def kill(self) -> None:
        """Hard teardown (no drain); used by crash handling and tests."""

    def __repr__(self) -> str:
        state = "healthy" if self.healthy else f"dead({self._death_reason})"
        return f"{type(self).__name__}(shard={self.shard_id}, {state})"


# ----------------------------------------------------------------------
class WorkerProcess:
    """A launched worker child and our ends of its two pipes.

    It imports, then blocks reading its first message — the spec a
    :class:`ProcessShard` sends it.  Launching is split from adoption
    so a manager whose graph image is still being built can start its
    interpreters meanwhile.
    """

    def __init__(self) -> None:
        cmd_r, cmd_w = os.pipe()
        reply_r, reply_w = os.pipe()
        self.cmd = Connection(cmd_w, readable=False)
        self.reply = Connection(reply_r, writable=False)
        try:
            self.process = python_child(
                "from repro.shard.worker import spawn_main; "
                f"spawn_main({cmd_r}, {reply_w})",
                pass_fds=(cmd_r, reply_w),
            )
        finally:
            # the child's ends: ours must go, or a dead child is a hang
            # on the reply pipe instead of EOF
            os.close(cmd_r)
            os.close(reply_w)

    def reap(self) -> int:
        """Exit code of a child that is exiting (killed if it does not)."""
        try:
            return self.process.wait(REAP_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
            self.process.kill()
            return self.process.wait()

    def discard(self) -> None:
        """Drop a worker no shard adopted: EOF instead of a spec ends it."""
        self.cmd.close()
        self.reply.close()
        self.reap()


class ProcessShard(ShardHandle):
    """One worker process behind two simplex pipes.

    The constructor launches the child (or adopts an already launched
    ``worker``); the spec travels as the first pipe message on a boot
    thread that holds the send lock, so ``N`` constructors return at
    once and ``N`` workers import and build concurrently, while every
    later command queues behind the spec.  The receiver thread reaps
    the child when the reply pipe hits EOF.  A worker needs no kill
    switch for a dead parent: its command pipe hits EOF and it exits.
    """

    def __init__(
        self, spec: ShardSpec, worker: WorkerProcess | None = None
    ) -> None:
        super().__init__(spec)
        if worker is None:
            worker = WorkerProcess()
        self._worker = worker
        self._send_lock = threading.Lock()
        boot_holds_lock = threading.Event()
        threading.Thread(
            target=self._boot,
            args=(boot_holds_lock,),
            name=f"shard-{spec.shard_id}-boot",
            daemon=True,
        ).start()
        boot_holds_lock.wait()
        self._receiver = threading.Thread(
            target=self._receive_loop,
            name=f"shard-{spec.shard_id}-receiver",
            daemon=True,
        )
        self._receiver.start()

    def _boot(self, holds_lock: threading.Event) -> None:
        """Send the spec: blocks until the child has imported and reads."""
        try:
            with self._send_lock:
                holds_lock.set()
                self._worker.cmd.send(self.spec)
        except (BrokenPipeError, OSError) as exc:
            self._mark_dead(f"command pipe broken at boot: {exc!r}")

    def _receive_loop(self) -> None:
        while True:
            try:
                reply = self._worker.reply.recv()
            except (EOFError, OSError):
                self._mark_dead(
                    "worker process exited "
                    f"(exitcode={self._worker.reap()})"
                )
                return
            self._resolve(reply)

    def _send(self, command: Command) -> None:
        if self._dead.is_set():
            raise ShardUnavailableError(
                f"shard {self.shard_id} is down: {self._death_reason}"
            )
        try:
            with self._send_lock:
                self._worker.cmd.send(command)
        except (BrokenPipeError, OSError) as exc:
            self._mark_dead(f"command pipe broken: {exc!r}")
            raise ShardUnavailableError(
                f"shard {self.shard_id} command pipe broke"
            ) from exc

    def stop(self, timeout_s: float = 30.0) -> None:
        if self.healthy:
            try:
                self.submit(lambda rid: StopCommand(rid)).result(timeout_s)
            except Exception:
                pass
        try:
            self._worker.process.wait(timeout_s)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
            self.kill()
        self._mark_dead("stopped")

    def kill(self) -> None:
        self._worker.process.terminate()
        self._worker.reap()
        self._mark_dead("killed")


# ----------------------------------------------------------------------
class InprocShard(ShardHandle):
    """The worker loop on one in-process thread (deterministic tests).

    Its source is a queue of commands: the loop takes every queued
    command before each admission poll and waits on the queue when
    idle, as a worker does on its pipe.
    """

    def __init__(self, spec: ShardSpec) -> None:
        super().__init__(spec)
        # imported here: the process backend's parent is a control plane
        # that never loads the data plane (graph, kernels, numpy)
        from repro.shard.worker import ShardServer

        self._commands: "queue.SimpleQueue[Command | None]" = (
            queue.SimpleQueue()
        )
        self._unpaused = threading.Event()
        self._unpaused.set()
        # built here, served on the shard's thread from now on
        self._server = ShardServer(spec, reply=self._resolve)
        self._thread = threading.Thread(
            target=self._run,
            name=f"shard-inproc-{spec.shard_id}",
            daemon=True,
        )
        self._thread.start()

    def _run(self) -> None:
        server = self._server

        def take(timeout_s: float) -> bool:
            try:
                command = self._commands.get(timeout_s > 0, timeout_s)
            except queue.Empty:
                return True
            while True:
                self._unpaused.wait()
                if command is None or not server.handle(command):
                    return False
                try:
                    command = self._commands.get_nowait()
                except queue.Empty:
                    return True

        try:
            server.serve(take)
        except Exception as exc:
            # mirror the process backend: a raising worker is dead
            self._mark_dead(f"worker raised: {exc!r}")

    # -- test hooks ----------------------------------------------------
    def pause(self) -> None:
        """Stall the shard's loop at its next command (deterministic
        backlog in tests): nothing is read, served or answered."""
        self._unpaused.clear()

    def resume(self) -> None:
        self._unpaused.set()

    @property
    def server(self) -> "ShardServer":
        """The live server (tests probe applied_broadcasts etc.)."""
        return self._server

    # ------------------------------------------------------------------
    def _send(self, command: Command) -> None:
        if self._dead.is_set():
            raise ShardUnavailableError(
                f"shard {self.shard_id} is down: {self._death_reason}"
            )
        self._commands.put(command)

    def stop(self, timeout_s: float = 30.0) -> None:
        if self.healthy:
            try:
                self.submit(lambda rid: StopCommand(rid)).result(timeout_s)
            except Exception:
                pass
        self._commands.put(None)
        self._thread.join(timeout_s)
        self._mark_dead("stopped")

    def kill(self) -> None:
        try:
            self._server.runtime.stop(timeout_s=5.0, flush=False)
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        self._mark_dead("killed")
        self._commands.put(None)


#: registry for CLI/bench selection by name
BACKENDS = ("process", "inproc")


def make_shard(spec: ShardSpec, backend: str = "process") -> ShardHandle:
    """Instantiate a shard handle by backend name."""
    if backend == "process":
        return ProcessShard(spec)
    if backend == "inproc":
        return InprocShard(spec)
    raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
