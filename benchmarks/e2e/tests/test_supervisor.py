"""No process outlives the harness — checked from outside it."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.e2e.procfs import session_pids

ROOT = Path(__file__).resolve().parents[3]


# runs in its own interpreter: a Supervisor makes its process a subreaper
# and takes over SIGTERM, which must not happen to the pytest process
_ORPHAN_SCENARIO = """
import os, subprocess, sys, time
from benchmarks.e2e.procfs import session_pids
from benchmarks.e2e.supervisor import Supervisor

supervisor = Supervisor()
grandchild = (
    "import signal, time; signal.signal(signal.SIGINT, signal.SIG_IGN); "
    "time.sleep(600)"
)
child = supervisor.spawn(
    [sys.executable, "-c",
     "import subprocess, sys, time; "
     f"subprocess.Popen([sys.executable, '-c', {grandchild!r}]); "
     "time.sleep(600)"],
    dict(os.environ), subprocess.DEVNULL,
)
deadline = time.monotonic() + 10.0
while len(session_pids({child.pid})) < 2 and time.monotonic() < deadline:
    time.sleep(0.01)
print("before", len(session_pids({child.pid})))
supervisor.stop(child)
print("after", session_pids({child.pid}), supervisor.leftovers())
"""


def test_stop_reaps_a_grandchild_that_outlives_its_parent():
    """The shape of the resource_tracker leak: the child dies on SIGINT,
    its own child ignores the signal and is orphaned onto the harness."""
    done = subprocess.run(
        [sys.executable, "-c", _ORPHAN_SCENARIO], cwd=ROOT, timeout=60,
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["before 2", "after [] []"]


_IGNORED_SIGINT_SCENARIO = """
import os, signal, subprocess, sys, time
signal.signal(signal.SIGINT, signal.SIG_IGN)  # as a shell's background job has it
from benchmarks.e2e.supervisor import Supervisor

supervisor = Supervisor()
child = supervisor.spawn(
    [sys.executable, "-c", "import time; print('up', flush=True); time.sleep(600)"],
    dict(os.environ), subprocess.PIPE,
)
assert child.stdout.readline() == b"up\\n"  # its handlers are installed
started = time.monotonic()
code = supervisor.stop(child)
print(code, time.monotonic() - started < 5.0, supervisor.leftovers())
"""


def test_a_child_stops_on_sigint_even_when_the_harness_inherited_it_ignored():
    done = subprocess.run(
        [sys.executable, "-c", _IGNORED_SIGINT_SCENARIO], cwd=ROOT, timeout=60,
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(-signal.SIGINT), "True", "[]"]


def test_sigterm_mid_run_leaves_no_process_or_zombie_behind():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    harness = subprocess.Popen(
        [
            sys.executable, "-m", "benchmarks.e2e", "run",
            "--workload", "steady_topk", "--smoke",
        ],
        cwd=ROOT, env=env, stderr=subprocess.PIPE, stdout=subprocess.DEVNULL,
        text=True,
    )
    try:
        assert harness.stderr is not None
        line = harness.stderr.readline()  # "[supervisor] started pid=N sid=N: ..."
        assert line.startswith("[supervisor] started"), line
        sid = int(line.split("sid=")[1].split(":")[0])
        # wait for the fleet (server + tracker + 2 workers), then let the
        # load generator get into its warm-up / window before the signal
        deadline = time.monotonic() + 60.0
        while len(session_pids({sid})) < 4 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(session_pids({sid})) >= 4
        time.sleep(4.0)
        assert harness.poll() is None, "run ended before it could be signalled"
        harness.send_signal(signal.SIGTERM)
        code = harness.wait(timeout=60.0)
    finally:
        if harness.poll() is None:
            harness.kill()
            harness.wait()
    assert code == 128 + signal.SIGTERM
    assert session_pids({sid}) == []
