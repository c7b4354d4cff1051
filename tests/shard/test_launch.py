"""What ``python_child`` puts in a child's environment, and nothing more.

With glibc's default of one malloc arena per contending thread, the
heap one thread frees is never reused by another; workers used to
build on the main thread and serve from others.  The launcher caps the
arenas at one — as a default an operator can override, and as the only
thing it changes.
"""

import json
import os
import subprocess
import sys

from repro.shard.launch import CHILD_ENV_DEFAULTS, python_child

DUMP_ENV = "import json, os; print(json.dumps(dict(os.environ)))"


def child_environment() -> dict[str, str]:
    child = python_child(DUMP_ENV, stdout=subprocess.PIPE)
    out, _ = child.communicate(timeout=60)
    assert child.returncode == 0
    return json.loads(out)


def plain_child_environment() -> dict[str, str]:
    """A child handed ``os.environ`` as it is: the baseline, which
    already includes whatever the interpreter itself adds at start-up."""
    out = subprocess.run(
        [sys.executable, "-c", DUMP_ENV], env=dict(os.environ),
        stdin=subprocess.DEVNULL, capture_output=True, timeout=60, check=True,
    ).stdout
    return json.loads(out)


def test_child_sees_one_malloc_arena(monkeypatch):
    monkeypatch.delenv("MALLOC_ARENA_MAX", raising=False)
    assert child_environment()["MALLOC_ARENA_MAX"] == "1"


def test_operator_setting_wins(monkeypatch):
    monkeypatch.setenv("MALLOC_ARENA_MAX", "4")
    assert child_environment()["MALLOC_ARENA_MAX"] == "4"


def test_nothing_else_in_the_environment_changes(monkeypatch):
    monkeypatch.delenv("MALLOC_ARENA_MAX", raising=False)
    monkeypatch.setenv("LAUNCH_TEST_MARKER", "kept")
    child = child_environment()
    assert CHILD_ENV_DEFAULTS == {"MALLOC_ARENA_MAX": "1"}
    assert child.pop("MALLOC_ARENA_MAX") == "1"
    assert child["LAUNCH_TEST_MARKER"] == "kept"
    assert child == plain_child_environment()
