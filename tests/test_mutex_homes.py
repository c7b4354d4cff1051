"""Where mutexes live, checked on the source.

Every serving loop runs on one thread and holds no lock: a shard worker
reads its command pipe, a started ``ServingRuntime`` its inbox, and the
result cache belongs to the loop that owns it.  The mutexes left guard
the front door's shared state: ``ShardManager``'s update lock and
per-slot locks, and a shard handle's pending-reply and send locks.  A
``threading`` mutex constructed, or a ``# guarded-by:`` annotation
written, anywhere else puts a lock back into a loop.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: the only modules that may construct a mutex or declare a guarded field
MUTEX_HOMES = {"shard/manager.py", "shard/backend.py"}

MUTEXES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

GUARDED_BY = re.compile(r"#\s*guarded-by:")


def mutex_references(tree):
    """Lines that name a ``threading`` mutex type: a call, or a
    reference such as ``field(default_factory=threading.Lock)``."""
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "threading"
        for alias in node.names
        if alias.name in MUTEXES
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and node.attr in MUTEXES
            and isinstance(node.value, ast.Name)
            and node.value.id == "threading"
        )
        or (isinstance(node, ast.Name) and node.id in imported)
    ]


def guarded_by_lines(text):
    """Lines carrying a ``# guarded-by:`` comment."""
    return [
        token.start[0]
        for token in tokenize.generate_tokens(io.StringIO(text).readline)
        if token.type == tokenize.COMMENT and GUARDED_BY.match(token.string)
    ]


def offences():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module in MUTEX_HOMES:
            continue
        text = path.read_text(encoding="utf-8")
        for line in mutex_references(ast.parse(text)):
            found.append(f"{module}:{line} constructs a mutex")
        for line in guarded_by_lines(text):
            found.append(f"{module}:{line} declares a guarded-by field")
    return found


def test_mutexes_live_only_in_the_front_door():
    assert not offences()


def test_the_front_door_still_declares_its_mutexes():
    # the homes keep their locks; if these vanish, the guard above
    # checks a tree with no mutex left and the linter's R7/R9/R11
    # police nothing
    for module in sorted(MUTEX_HOMES):
        text = (SRC / module).read_text(encoding="utf-8")
        assert mutex_references(ast.parse(text)), module
        assert guarded_by_lines(text), module


def test_the_guard_sees_both_forms():
    tree = ast.parse(
        "import threading\n"
        "from threading import RLock as R\n"
        "a = threading.Lock()\n"
        "b = field(default_factory=threading.Condition)\n"
        "c = R()\n"
        "d = threading.Event()\n"
    )
    assert sorted(mutex_references(tree)) == [3, 4, 5]
    text = "x = 0  # guarded-by: self._lock\ny = '# guarded-by: no'\n"
    assert guarded_by_lines(text) == [1]
