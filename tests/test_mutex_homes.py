"""Where mutexes live and how they are held, checked on the source.

Every serving loop runs on one thread and holds no lock: a shard worker
reads its command pipe, a started ``ServingRuntime`` its inbox, and the
result cache belongs to the loop that owns it.  The mutexes left guard
the front door's shared state: ``ShardManager``'s update lock and
per-slot locks, and a shard handle's pending-reply and send locks.  A
``threading`` mutex constructed, or a ``# guarded-by:`` annotation
written, anywhere else puts a lock back into a loop.

Inside the homes, two rules hold:

* **guarded writes** -- a field declared ``# guarded-by: L`` (``L`` or
  ``self.L``, a lock attribute of the object that holds the field) is
  written only lexically inside ``with <that object>.L:``; a write is an
  assignment, ``+=``, ``del``, a subscript store or a mutating container
  call, and ``__init__`` is exempt;
* **leaf locks** -- the one ``RLock`` (``ShardManager._update_lock``) is
  the only lock held while another is taken.  A ``with`` on any other
  mutex takes no lock, calls no function the homes define and resolves
  no ``Future`` (its done-callbacks take ``slot.lock``).  One reentrant
  root and leaves that take nothing admit no lock-order cycle and no
  self-deadlock.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: the only modules that may construct a mutex or declare a guarded field
MUTEX_HOMES = {"shard/manager.py", "shard/backend.py"}

MUTEXES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

GUARDED_BY = re.compile(r"#\s*guarded-by:\s*(?:self\.)?(\w+)")

#: container methods that mutate the field they are called on
MUTATING = {"append", "appendleft", "extend", "insert", "pop", "popleft", "remove",
            "discard", "clear", "update", "add", "setdefault", "move_to_end"}

#: calls that may run a Future's done-callbacks on the calling thread
RESOLVES = {"set_result", "set_exception", "add_done_callback", "cancel"}


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


def guarded_by(text):
    """{line: lock} of each ``# guarded-by: lock`` (or ``self.lock``) comment."""
    return {
        token.start[0]: match.group(1)
        for token in tokenize.generate_tokens(io.StringIO(text).readline)
        if token.type == tokenize.COMMENT
        and (match := GUARDED_BY.match(token.string))
    }


def guarded_fields(text, tree):
    """{field: lock} of each annotated assignment: ``self.f = ...`` in
    ``__init__``, or a dataclass's ``f: T = ...``."""
    locks = guarded_by(text)
    fields = {
        getattr(target, "attr", getattr(target, "id", None)): locks[node.lineno]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.lineno in locks
        for target in getattr(node, "targets", [getattr(node, "target", None)])
    }
    assert len(fields) == len(locks), "a guarded-by comment declares no field"
    return fields


def written(node):
    """The ``<receiver>.<field>`` that ``node`` stores, deletes or mutates
    in place (a subscript store, or a mutating container call)."""
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in MUTATING:
        node = node.func.value
    elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
        node = node.value
    elif not isinstance(getattr(node, "ctx", ast.Load()), (ast.Store, ast.Del)):
        return None
    return node if isinstance(node, ast.Attribute) else None


def unguarded_writes(tree, fields):
    """(line, field) of each write outside ``with <receiver>.<lock>:``.

    ``__init__`` is exempt; a nested ``def`` or ``lambda`` runs later, so
    it starts holding nothing."""
    found = []

    def visit(node, held):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if getattr(node, "name", None) == "__init__":
                return
            held = frozenset()
        target = written(node)
        lock = target and fields.get(target.attr)
        if lock and f"{ast.unparse(target.value)}.{lock}" not in held:
            found.append((node.lineno, ast.unparse(target)))
        if isinstance(node, (ast.With, ast.AsyncWith)):
            held = held | {ast.unparse(item.context_expr) for item in node.items}
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    visit(tree, frozenset())
    return found


def mutex_kinds(tree):
    """{attribute: ``Lock``/``RLock``/...} for each attribute bound to a
    new mutex, including a dataclass field's ``default_factory``."""
    return {
        getattr(target, "attr", getattr(target, "id", None)): ref.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        for ref in ast.walk(node.value)
        if isinstance(ref, ast.Attribute) and ref.attr in MUTEXES
    }


def leaf_lock_offences(tree, leaves, home_functions):
    """(line, what) inside a ``with <x>.<leaf>:`` that opens a ``with``,
    acquires, calls a function of the homes or resolves a ``Future``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.With, ast.AsyncWith)) or not any(
            getattr(item.context_expr, "attr", None) in leaves for item in node.items
        ):
            continue
        for inner in (n for stmt in node.body for n in ast.walk(stmt)):
            if isinstance(inner, (ast.With, ast.AsyncWith)):
                found.append((inner.lineno, "with"))
            elif isinstance(inner, ast.Call):
                name = getattr(inner.func, "attr", getattr(inner.func, "id", None))
                if name == "acquire" or name in home_functions | RESOLVES:
                    found.append((inner.lineno, ast.unparse(inner.func)))
    return found


def homes():
    """(module, text, tree) of each mutex home, in name order."""
    for module in sorted(MUTEX_HOMES):
        text = (SRC / module).read_text(encoding="utf-8")
        yield module, text, ast.parse(text)


def offences():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module in MUTEX_HOMES:
            continue
        text = path.read_text(encoding="utf-8")
        for line in mutex_references(ast.parse(text)):
            found.append(f"{module}:{line} constructs a mutex")
        for line in guarded_by(text):
            found.append(f"{module}:{line} declares a guarded-by field")
    return found


def test_mutexes_live_only_in_the_front_door():
    assert not offences()


def test_the_front_door_still_declares_its_mutexes():
    # the homes keep their locks; if these vanish, the guard above
    # checks a tree with no mutex left and the guarded-write and
    # leaf-lock checks below check nothing
    for module, text, tree in homes():
        assert mutex_references(tree), module
        assert guarded_by(text), module


def test_guarded_fields_are_written_under_their_lock():
    offences = {}
    for module, text, tree in homes():
        fields = guarded_fields(text, tree)
        assert fields, module
        offences[module] = unguarded_writes(tree, fields)
    assert offences == {module: [] for module in MUTEX_HOMES}


def test_every_lock_but_the_update_lock_is_a_leaf():
    kinds = {}
    home_functions = set()
    for _, _, tree in homes():
        kinds.update(mutex_kinds(tree))
        home_functions.update(
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
    roots = {name for name, kind in kinds.items() if kind == "RLock"}
    assert roots == {"_update_lock"}
    leaves = set(kinds) - roots
    assert leaves == {"lock", "_pending_lock", "_send_lock"}
    offences = {
        module: leaf_lock_offences(tree, leaves, home_functions)
        for module, _, tree in homes()
    }
    assert offences == {module: [] for module in MUTEX_HOMES}


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
    assert guarded_by(text) == {1: "_lock"}


#: the fields a dataclass declares, written through ``slot.``
SLOT_FIXTURE = """
@dataclass
class Slot:
    inflight: int = 0  # guarded-by: lock
    lock: threading.Lock = field(default_factory=threading.Lock)

def route(slot, other):
    with slot.lock:
        slot.inflight += 1
        other.inflight -= 1

        def finish(done):
            slot.inflight -= 1
    slot.inflight += 1
"""


def test_the_guarded_write_check_sees_slot_writes_and_nested_defs():
    tree = ast.parse(SLOT_FIXTURE)
    fields = guarded_fields(SLOT_FIXTURE, tree)
    assert fields == {"inflight": "lock"}
    assert unguarded_writes(tree, fields) == [
        (10, "other.inflight"),  # under slot.lock, not other.lock
        (13, "slot.inflight"),  # a nested def runs later, unlocked
        (14, "slot.inflight"),
    ]


#: an ``__init__`` that declares two guarded fields; each case below
#: follows it with code at module level
GUARDED_INIT = (
    "def __init__(self):\n"
    "    self.n = 0  # guarded-by: self._lock\n"
    "    self.log = {}  # guarded-by: _lock\n"
)

#: case: (code, the writes the check reports)
GUARDED_WRITES = {
    "unlocked-and-wrong-lock": ("self.n = 0\nwith self._root:\n    self.n = 1\n"
                                "with self._lock:\n    self.n = 2", ["self.n"] * 2),
    "init-is-exempt": ("", []),
    "mutating-call": ("with self._lock:\n    self.log.pop(k)\nself.log.pop(k)\n"
                      "self.log[k] = 1\ndel self.log[k]", ["self.log"] * 3),
}


@pytest.mark.parametrize("case", list(GUARDED_WRITES))
def test_the_guarded_write_check_on_each_kind_of_write(case):
    code, writes = GUARDED_WRITES[case]
    text = GUARDED_INIT + code
    found = unguarded_writes(ast.parse(text), guarded_fields(text, ast.parse(text)))
    assert [field for _, field in found] == writes


#: case: (code under the leaf locks ``lock`` and ``_pending_lock``,
#: what the leaf-lock check reports)
LEAF_LOCKS = {
    "retaken": ("with self.lock:\n    with self.lock: pass", ["with"]),
    "calls-a-home-function": ("with self.lock:\n    self.f()", ["self.f"]),
    "opposite-order": ("with self.lock:\n    with self._pending_lock: pass\n"
                       "with self._pending_lock:\n    with self.lock: pass",
                       ["with"] * 2),
    # takes the root lock, and resolves a Future whose callbacks lock a slot
    "acquires-and-resolves": ("with self.lock:\n    self._update_lock.acquire()\n"
                              "    done.set_result(1)",
                              ["self._update_lock.acquire", "done.set_result"]),
}


@pytest.mark.parametrize("case", list(LEAF_LOCKS))
def test_the_leaf_lock_check_on_each_kind_of_offence(case):
    code, offences = LEAF_LOCKS[case]
    found = leaf_lock_offences(ast.parse(code), {"lock", "_pending_lock"}, {"f"})
    assert [what for _, what in found] == offences
