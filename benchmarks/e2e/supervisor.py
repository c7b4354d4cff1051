"""Process hygiene: every child the harness starts is gone when it exits.

``repro.shard.backend.ProcessShard`` uses the ``spawn`` context, whose
``multiprocessing.resource_tracker`` child outlives the server: after
``python -m repro.cli serve`` exits, the tracker is an orphan that
nobody waits for.  So the harness owns the clean-up instead of trusting
its children:

* the harness is a **child subreaper** — orphaned descendants are
  re-parented to it, not to init, so it can ``waitpid`` them;
* every child gets its **own session** (``sid == child pid``), which
  marks all of its descendants, and ``PR_SET_PDEATHSIG`` so it dies
  with the harness even on SIGKILL;
* :meth:`Supervisor.stop` is SIGINT -> wait -> ``killpg(SIGKILL)`` ->
  reap until the session is empty;
* :meth:`Supervisor.leftovers` scans ``/proc`` for any pid — running
  or zombie — still in one of those sessions.

Linux only (``prctl``, ``/proc``).
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from collections.abc import Mapping, Sequence
from typing import IO

from benchmarks.e2e.procfs import proc_table, session_pids

PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36

#: seconds a child gets to exit on SIGINT before its session is killed
STOP_GRACE_S = 20.0
#: seconds to wait for a SIGKILLed session to drain out of /proc
REAP_TIMEOUT_S = 10.0

_libc = ctypes.CDLL(None, use_errno=True)
_libc.prctl.argtypes = [
    ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong
]
_libc.prctl.restype = ctypes.c_int


def _prctl(option: int, value: int) -> None:
    if _libc.prctl(option, value, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, f"prctl({option}) failed: {os.strerror(errno)}")


def _prepare_child() -> None:
    """``preexec_fn``: SIGKILL this child when the harness thread dies,
    and let it see the SIGINT that :meth:`Supervisor.stop` sends.

    A harness started as a background job of a shell without job control
    inherits SIGINT as *ignored*, and so would its children: a Python
    child then installs no ``KeyboardInterrupt`` handler and sits out
    the whole grace period.
    """
    _prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _reap_orphans() -> None:
    """Collect dead descendants re-parented to us (we are the subreaper).

    Session leaders are ``Popen`` objects and are waited through those,
    so only zombies that are *not* leaders are reaped here; waiting on
    ``-1`` would steal the leaders' exit codes.
    """
    me = os.getpid()
    for pid, state, ppid, sid in proc_table():
        if ppid == me and state == "Z" and sid != pid:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass


def _terminate(signum: int, _frame: object) -> None:
    # a second signal must not interrupt the teardown the first one started
    signal.signal(signum, signal.SIG_IGN)
    raise SystemExit(128 + signum)


class Supervisor:
    """Starts children in their own sessions and guarantees their end."""

    def __init__(self) -> None:
        _prctl(PR_SET_CHILD_SUBREAPER, 1)
        signal.signal(signal.SIGTERM, _terminate)
        self._sids: set[int] = set()
        self._live: dict[int, subprocess.Popen[bytes]] = {}

    def spawn(
        self,
        argv: Sequence[str],
        env: Mapping[str, str],
        stdout: IO[bytes] | int,
    ) -> subprocess.Popen[bytes]:
        child = subprocess.Popen(
            list(argv),
            env=dict(env),
            stdin=subprocess.DEVNULL,
            stdout=stdout,
            stderr=subprocess.STDOUT,
            start_new_session=True,
            preexec_fn=_prepare_child,
        )
        self._sids.add(child.pid)
        self._live[child.pid] = child
        print(
            f"[supervisor] started pid={child.pid} sid={child.pid}: "
            f"{' '.join(argv)}",
            file=sys.stderr,
            flush=True,
        )
        return child

    def stop(self, child: subprocess.Popen[bytes]) -> int:
        """End ``child`` and its whole session; returns its exit code."""
        if child.poll() is None:
            child.send_signal(signal.SIGINT)
            try:
                child.wait(STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                pass
        self._kill_session(child.pid)
        code = child.wait()
        self._live.pop(child.pid, None)
        return code

    def stop_all(self) -> None:
        for child in list(self._live.values()):
            self.stop(child)

    def _kill_session(self, sid: int) -> None:
        """SIGKILL the session until only its (waitable) leader remains."""
        deadline = time.monotonic() + REAP_TIMEOUT_S
        while time.monotonic() < deadline:
            _reap_orphans()
            members = session_pids({sid})
            # a zombie leader is ours to Popen.wait(); anything else must go
            if all(pid == sid and state == "Z" for pid, state in members):
                return
            try:
                # only while members exist: an empty session's id may be reused
                os.killpg(sid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            time.sleep(0.01)

    def leftovers(self) -> list[tuple[int, str]]:
        """Anything — running or zombie — still in a session we created."""
        _reap_orphans()
        return session_pids(self._sids)
