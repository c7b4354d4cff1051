"""Project index: module graph, call graph, lock-context dataflow.

Every reprolint rule (:mod:`repro.analysis.rules`) runs over one
:class:`ProjectIndex`; the concurrency rules need to know what a
*call* does — does ``self._record(...)`` take a mutex, does
``flush_one`` mutate the graph, may ``_observe`` already run under a
mutex?  This module builds that knowledge:

* :class:`ProjectModule` parses one file (tree, import aliases,
  ``# guarded-by:`` annotations); :class:`ProjectIndex` builds a
  symbol table over them (module-level functions plus class methods,
  qualified as ``module.Class.method``) and resolves call sites
  against it.
* A structural walk of each function body tracks the **lock context**
  — the ordered set of mutexes held at every statement — through
  ``with some_lock:`` blocks and explicit ``acquire``/``release``
  pairs, recording an event stream (acquisitions, calls, attribute
  writes, CSR-view assignments, name loads) annotated with the context.
* A fixpoint pass propagates **entry contexts** through the call
  graph: a function called only under a mutex is known to run under
  it, transitively.
* Per-function summaries (``returns_view``, ``mutates_graph``) let the
  CSR-snapshot rule (R10) see through helper calls.

Lock identity
-------------
Locks are named by their *owner*: ``self._lock`` inside class
``PPRCache`` becomes ``PPRCache._lock``; a module-level
``LOCK`` becomes ``module.LOCK``; a function-local lock is qualified
by the function.  Two instances of the same class therefore share a
lock name — a deliberately conservative choice (per-instance aliasing
is invisible statically, and instances of one class follow one
discipline anyway).

Soundness model (assumptions and limits)
----------------------------------------
This is a *may*-analysis tuned to this codebase's straight-line
locking style; docs/DEVELOPMENT.md states the contract in full:

* ``acquire`` / ``release`` pairs are matched linearly in source
  order (conditional acquisition via ``if not lock.acquire(...):
  return`` is handled; release on one branch only is not).
* A callee's entry context is the **union** over its call sites —
  a function called both under and outside a lock is treated as
  possibly-under for conflict detection.
* Calls are resolved by local name, ``self.``-method lookup, import
  alias, or project-wide *unique* name; ambiguous names stay
  unresolved (no propagation through them).  Common container-method
  names (``append``, ``get``, ...) are never unique-resolved.
* Nested function definitions and lambdas are not walked as part of
  the enclosing body (they execute later, under unknown context).
"""

from __future__ import annotations

import ast
import dataclasses
import io
import re
import tokenize
from collections.abc import Iterator, Mapping, Sequence
from pathlib import Path

#: attribute names that are the lock API (never resolved as calls)
LOCK_API = frozenset({"acquire", "release"})

#: receiver names treated as mutexes in ``with X:`` / ``X.acquire()``
#: — ``lock``/``mutex`` as a whole ``_``-separated component
#: (``_seed_lock``, ``lock_a``; not ``blocked`` or ``deadlock``)
_LOCKISH_RE = re.compile(r"(?:^|_)(?:lock|mutex)(?:_|$)", re.IGNORECASE)

#: ``# guarded-by: self._lock`` — declares the mutex required to
#: *write* the attribute assigned on that line (rule R9; see
#: docs/DEVELOPMENT.md)
_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*(?P<expr>[A-Za-z_][\w.]*)")

#: methods that mutate a graph: DynamicGraph's, an algorithm's
#: ``apply_update``, and ``EdgeUpdate.apply(graph)``
GRAPH_MUTATORS = frozenset(
    {
        "add_edge",
        "remove_edge",
        "toggle_edge",
        "add_node",
        "remove_node",
        "restore",
        "apply_update",
        "apply",
    }
)

#: container methods that mutate an annotated attribute in place (R9)
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "pop",
        "popleft",
        "appendleft",
        "remove",
        "discard",
        "clear",
        "update",
        "add",
        "setdefault",
        "move_to_end",
    }
)

#: method names too generic for unique-name call resolution (container
#: protocol + instrument API); resolving these by uniqueness would link
#: dict/list/metric calls to unrelated project symbols
_NEVER_UNIQUE = frozenset(
    {
        "append", "add", "get", "set", "pop", "clear", "copy", "update",
        "remove", "discard", "extend", "insert", "join", "split", "strip",
        "items", "keys", "values", "observe", "inc", "dec", "put", "take",
        "apply", "apply_update", "run", "start", "stop", "close", "open",
        "read", "write", "send", "query", "reset", "submit", "count",
        "index", "sort", "mean", "min", "max", "sum", "format", "match",
        "search", "group", "encode", "decode", "flush", "peek", "offer",
    }
)


def lockish(name: str) -> bool:
    """Heuristic: does this identifier name a mutex?"""
    return bool(_LOCKISH_RE.search(name))


def expr_text(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_csr_view_call(node: ast.AST) -> bool:
    """``csr_view(...)`` or ``x.csr_view(...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "csr_view"
    return isinstance(func, ast.Attribute) and func.attr == "csr_view"


@dataclasses.dataclass(slots=True)
class Event:
    """One context-annotated occurrence inside a function body.

    ``kind`` is one of ``acquire`` (lock acquisition; ``data`` is the
    lock's owner-qualified name), ``call`` (``data`` is the ``ast.Call``),
    ``attr_write`` (``data`` is the attribute name; covers plain
    assignment, augmented assignment, subscript stores, ``del``, and
    mutating method calls on the attribute), ``view_assign`` (``data``
    is ``(varname, call_node)``), and ``load`` (``data`` is the name).
    ``held`` is the *local* context (lock names); add the function's
    entry context for the effective one.
    """

    kind: str
    line: int
    col: int
    held: tuple[str, ...]
    data: object


@dataclasses.dataclass(slots=True)
class FunctionInfo:
    """One function/method plus its context-annotated event stream."""

    qualname: str
    simple_name: str
    module: "ProjectModule"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None
    events: list[Event] = dataclasses.field(default_factory=list)
    #: union of contexts this function may be entered under
    entry_holds: set[str] = dataclasses.field(default_factory=set)
    #: resolved callees (qualnames), populated by ProjectIndex
    callees: set[str] = dataclasses.field(default_factory=set)
    returns_view: bool = False
    mutates_graph: bool = False

    def effective(self, event: Event) -> frozenset[str]:
        """Locks that may be held when ``event`` executes."""
        return frozenset(event.held) | frozenset(self.entry_holds)

    def iter_events(self, kind: str) -> Iterator[Event]:
        return (e for e in self.events if e.kind == kind)


class ProjectModule:
    """One parsed file: tree, module name, imports, lock annotations.

    Raises ``SyntaxError`` when ``source`` does not parse.
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.name = module_name_for(path)
        self.tree = ast.parse(source, filename=path)
        #: names assigned at module level (for lock qualification)
        self.globals: set[str] = {
            target.id
            for node in self.tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        self.aliases = _import_aliases(self.tree)
        #: line -> lock expression from ``# guarded-by:``
        self.guard_annotations: dict[int, str] = {}
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            guard = _GUARDED_BY_RE.search(tok.string)
            if guard is not None:
                self.guard_annotations[tok.start[0]] = guard.group("expr")


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local alias -> imported dotted name."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def module_name_for(path: str) -> str:
    """Dotted module name for a file path.

    Files under a ``repro`` package directory get their real dotted
    name (``.../src/repro/ppr/csr.py`` -> ``repro.ppr.csr``); anything
    else uses its stem, which is how fixture projects in tests refer
    to each other (``import helper``).
    """
    parts = Path(path).parts
    stem = Path(path).stem
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        dotted = list(parts[idx:-1]) + ([] if stem == "__init__" else [stem])
        return ".".join(dotted)
    return stem


# ----------------------------------------------------------------------
# context walker
# ----------------------------------------------------------------------
class _ContextWalker:
    """Walks one function body tracking the held-lock tuple."""

    def __init__(self, info: FunctionInfo, index: "ProjectIndex") -> None:
        self.info = info
        self.index = index
        self.module = info.module

    # -- lock naming ---------------------------------------------------
    def lock_id(self, node: ast.AST) -> str | None:
        """Owner-qualified identity for a lock expression."""
        text = expr_text(node)
        if text is None:
            return None
        head, _, rest = text.partition(".")
        if head == "self" and self.info.class_name is not None:
            if rest:
                return f"{self.info.class_name}.{rest}"
            # ``self`` itself is the lock (a lock class's own methods)
            return self.info.class_name
        if head == "cls" and self.info.class_name is not None and rest:
            return f"{self.info.class_name}.{rest}"
        if head in self.module.globals:
            return f"{self.module.name}.{text}"
        # function-local (parameter or local variable)
        return f"{self.info.qualname}:{text}"

    # -- recognizers ---------------------------------------------------
    def _lockish_id(self, expr: ast.expr) -> str | None:
        """The lock a mutex-named expression denotes, if it is one."""
        text = expr_text(expr)
        if text is None or not lockish(text.rsplit(".", 1)[-1]):
            return None
        return self.lock_id(expr)

    def _call_lock_op(self, call: ast.Call) -> tuple[str, str] | None:
        """(lock, "acquire"/"release") for explicit lock-API calls."""
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in LOCK_API:
            return None
        lock = self._lockish_id(func.value)
        return None if lock is None else (lock, func.attr)

    # -- event emission ------------------------------------------------
    def _emit(
        self, kind: str, node: ast.AST, held: tuple[str, ...], data: object
    ) -> None:
        self.info.events.append(
            Event(
                kind,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                held,
                data,
            )
        )

    def _scan_expr(
        self, expr: ast.expr, held: tuple[str, ...]
    ) -> tuple[str, ...]:
        """Record events inside an expression; returns the (possibly
        extended) held tuple — explicit ``acquire`` calls inside an
        expression (``if not lock.acquire(timeout=0):``) take effect."""
        for node in ast.walk(expr):
            if isinstance(node, (ast.Lambda, ast.FunctionDef)):
                continue
            if isinstance(node, ast.Call):
                op = self._call_lock_op(node)
                if op is not None:
                    lock, action = op
                    if action == "acquire":
                        self._emit("acquire", node, held, lock)
                        held = held + (lock,)
                    else:
                        held = tuple(h for h in held if h != lock)
                    continue
                self._emit("call", node, held, node)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                self._emit("load", node, held, node.id)
        return held

    def _handle_targets(
        self,
        targets: Sequence[ast.expr],
        value: ast.expr | None,
        stmt: ast.stmt,
        held: tuple[str, ...],
    ) -> None:
        for target in targets:
            if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ):
                if target.value.id in ("self", "cls"):
                    self._emit("attr_write", target, held, target.attr)
            elif isinstance(target, ast.Subscript):
                inner = target.value
                if (
                    isinstance(inner, ast.Attribute)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id in ("self", "cls")
                ):
                    self._emit("attr_write", target, held, inner.attr)
            elif isinstance(target, ast.Name):
                # every call result may be a view; R10 asks the index
                if isinstance(value, ast.Call):
                    self._emit(
                        "view_assign", stmt, held, (target.id, value)
                    )
            elif isinstance(target, (ast.Tuple, ast.List)):
                self._handle_targets(target.elts, None, stmt, held)

    # -- statement walk ------------------------------------------------
    def walk(self) -> None:
        body = self.info.node.body
        self._walk_body(body, ())

    def _walk_body(
        self, stmts: Sequence[ast.stmt], held: tuple[str, ...]
    ) -> tuple[str, ...]:
        for stmt in stmts:
            held = self._walk_stmt(stmt, held)
        return held

    def _union(
        self, base: tuple[str, ...], *branches: tuple[str, ...]
    ) -> tuple[str, ...]:
        merged = list(base)
        for branch in branches:
            for h in branch:
                if h not in merged:
                    merged.append(h)
        return tuple(merged)

    def _walk_stmt(
        self, stmt: ast.stmt, held: tuple[str, ...]
    ) -> tuple[str, ...]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return held  # nested defs run later, under unknown context
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            entered: list[str] = []
            for item in stmt.items:
                lock = self._lockish_id(item.context_expr)
                if lock is not None:
                    self._emit("acquire", item.context_expr, held, lock)
                    entered.append(lock)
                    held = held + (lock,)
                else:
                    held = self._scan_expr(item.context_expr, held)
            inner = self._walk_body(stmt.body, held)
            # locks from the with-items are released on exit; explicit
            # acquisitions inside the body persist past it
            for lock in entered:
                inner = tuple(h for h in inner if h != lock)
            return inner
        if isinstance(stmt, ast.If):
            held = self._scan_expr(stmt.test, held)
            then = self._walk_body(stmt.body, held)
            other = self._walk_body(stmt.orelse, held)
            return self._union((), then, other)
        if isinstance(stmt, ast.Try):
            after_body = self._walk_body(stmt.body, held)
            results = [after_body]
            for handler in stmt.handlers:
                # a handler may run after any prefix of the body; use
                # the post-body context (the release usually sits in
                # ``finally``, which walks after this and still undoes
                # the acquisition for code following the statement)
                results.append(self._walk_body(handler.body, after_body))
            merged = self._union((), *results)
            merged = self._walk_body(stmt.orelse, merged)
            return self._walk_body(stmt.finalbody, merged)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            held = self._scan_expr(stmt.iter, held)
            once = self._walk_body(stmt.body, held)
            once = self._walk_body(stmt.orelse, once)
            return self._union(held, once)
        if isinstance(stmt, ast.While):
            held = self._scan_expr(stmt.test, held)
            once = self._walk_body(stmt.body, held)
            once = self._walk_body(stmt.orelse, once)
            return self._union(held, once)
        if isinstance(stmt, ast.Assign):
            held = self._scan_expr(stmt.value, held)
            self._handle_targets(stmt.targets, stmt.value, stmt, held)
            return held
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                held = self._scan_expr(stmt.value, held)
                self._handle_targets([stmt.target], stmt.value, stmt, held)
            return held
        if isinstance(stmt, ast.AugAssign):
            held = self._scan_expr(stmt.value, held)
            self._handle_targets([stmt.target], None, stmt, held)
            return held
        if isinstance(stmt, ast.Delete):
            self._handle_targets(stmt.targets, None, stmt, held)
            return held
        if isinstance(stmt, (ast.Expr, ast.Return)):
            value = stmt.value
            if value is not None:
                held = self._scan_expr(value, held)
            if isinstance(stmt, ast.Return) and value is not None:
                self._emit("return", stmt, held, value)
            return held
        if isinstance(stmt, (ast.Assert, ast.Raise)):
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    held = self._scan_expr(value, held)
            return held
        # remaining compound statements: walk children generically
        for field in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, field, None)
            if inner:
                held = self._walk_body(inner, held)
        return held


# ----------------------------------------------------------------------
# the index
# ----------------------------------------------------------------------
class ProjectIndex:
    """Symbol table + call graph + lock-context dataflow over modules."""

    def __init__(self, modules: Sequence[ProjectModule]) -> None:
        self.modules = list(modules)
        #: qualname -> FunctionInfo
        self.functions: dict[str, FunctionInfo] = {}
        #: simple name -> [qualnames]
        self._by_simple: dict[str, list[str]] = {}
        #: (module, Class) -> {method name -> qualname}
        self._methods: dict[tuple[str, str], dict[str, str]] = {}
        #: (class name, attr) -> (lock id, path, line)
        self.guarded: dict[tuple[str, str], tuple[str, str, int]] = {}
        self._collect()
        self._walk_all()
        self._resolve_calls()
        self._propagate_entry_holds()
        self._summarize()

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "ProjectIndex":
        """Build an index from in-memory ``{path: source}`` (tests)."""
        return cls([ProjectModule(path, src) for path, src in sources.items()])

    # -- pass 1: symbols ----------------------------------------------
    def _collect(self) -> None:
        for module in self.modules:
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._add_function(module, node, None)
                elif isinstance(node, ast.ClassDef):
                    methods: dict[str, str] = {}
                    for item in node.body:
                        if isinstance(
                            item, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            qualname = self._add_function(
                                module, item, node.name
                            )
                            methods[item.name] = qualname
                    self._methods[(module.name, node.name)] = methods
                    self._collect_guards(module, node)

    def _add_function(
        self,
        module: ProjectModule,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> str:
        scope = f"{class_name}." if class_name else ""
        qualname = f"{module.name}.{scope}{node.name}"
        info = FunctionInfo(qualname, node.name, module, node, class_name)
        self.functions[qualname] = info
        self._by_simple.setdefault(node.name, []).append(qualname)
        return qualname

    def _collect_guards(
        self, module: ProjectModule, cls: ast.ClassDef
    ) -> None:
        """``# guarded-by:`` annotations on attribute assignments."""
        annotations = module.guard_annotations
        if not annotations:
            return
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            expr = annotations.get(node.lineno)
            if expr is None:
                continue
            lock = self._qualify_guard(expr, cls.name, module)
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self.guarded[(cls.name, target.attr)] = (
                        lock,
                        module.path,
                        node.lineno,
                    )

    @staticmethod
    def _qualify_guard(
        expr: str, class_name: str, module: ProjectModule
    ) -> str:
        head, _, rest = expr.partition(".")
        if head == "self" and rest:
            return f"{class_name}.{rest}"
        if head in module.globals:
            return f"{module.name}.{expr}"
        return f"{class_name}.{expr}"

    # -- pass 2: context walk ------------------------------------------
    def _walk_all(self) -> None:
        for info in self.functions.values():
            _ContextWalker(info, self).walk()

    # -- pass 3: call resolution ---------------------------------------
    def resolve_call(
        self, call: ast.Call, info: FunctionInfo
    ) -> str | None:
        """Qualified name of the project function a call targets."""
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            local = f"{info.module.name}.{name}"
            if local in self.functions:
                return local
            target = info.module.aliases.get(name)
            if target is not None and target in self.functions:
                return target
            return self._unique(name)
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in LOCK_API:
                return None
            receiver = func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls")
                and info.class_name is not None
            ):
                methods = self._methods.get(
                    (info.module.name, info.class_name), {}
                )
                if attr in methods:
                    return methods[attr]
            dotted = expr_text(func)
            if dotted is not None:
                head, _, rest = dotted.partition(".")
                target = info.module.aliases.get(head)
                if target is not None:
                    resolved = f"{target}.{rest}"
                    if resolved in self.functions:
                        return resolved
            return self._unique(attr)
        return None

    def _unique(self, name: str) -> str | None:
        if name in _NEVER_UNIQUE or name.startswith("__"):
            return None
        candidates = self._by_simple.get(name, ())
        return candidates[0] if len(candidates) == 1 else None

    def _resolve_calls(self) -> None:
        for info in self.functions.values():
            for event in info.iter_events("call"):
                call = event.data
                assert isinstance(call, ast.Call)
                target = self.resolve_call(call, info)
                if target is not None:
                    info.callees.add(target)

    # -- pass 4: entry-context fixpoint --------------------------------
    def _propagate_entry_holds(self) -> None:
        worklist = list(self.functions.values())
        while worklist:
            info = worklist.pop()
            for event in info.iter_events("call"):
                call = event.data
                assert isinstance(call, ast.Call)
                target = self.resolve_call(call, info)
                if target is None:
                    continue
                callee = self.functions[target]
                site_holds = set(event.held) | info.entry_holds
                new = site_holds - callee.entry_holds
                if new:
                    callee.entry_holds |= new
                    worklist.append(callee)

    # -- pass 5: summaries ---------------------------------------------
    def _summarize(self) -> None:
        changed = True
        while changed:
            changed = False
            for info in self.functions.values():
                if not info.mutates_graph and self._mutates_locally(info):
                    info.mutates_graph = True
                    changed = True
                if not info.returns_view and self._returns_view_locally(
                    info
                ):
                    info.returns_view = True
                    changed = True

    def _mutates_locally(self, info: FunctionInfo) -> bool:
        for event in info.iter_events("call"):
            assert isinstance(event.data, ast.Call)
            if self.call_mutates_graph(event.data, info) is not None:
                return True
        return False

    def _returns_view_locally(self, info: FunctionInfo) -> bool:
        view_vars: set[str] = set()
        for event in info.events:
            if event.kind == "view_assign":
                varname, call = event.data  # type: ignore[misc]
                if self.call_yields_view(call, info):
                    view_vars.add(varname)
                else:
                    view_vars.discard(varname)
            elif event.kind == "return":
                value = event.data
                assert isinstance(value, ast.expr)
                if isinstance(value, ast.Call) and self.call_yields_view(
                    value, info
                ):
                    return True
                if (
                    isinstance(value, ast.Name)
                    and value.id in view_vars
                ):
                    return True
        return False

    def call_yields_view(
        self, call: ast.Call, info: FunctionInfo
    ) -> bool:
        """Does this call produce a CSR view (directly or via helper)?"""
        if is_csr_view_call(call):
            return True
        target = self.resolve_call(call, info)
        return target is not None and self.functions[target].returns_view

    def call_mutates_graph(
        self, call: ast.Call, info: FunctionInfo
    ) -> tuple[bool, str] | None:
        """(direct, label) for a call that mutates the graph, else None.

        ``direct`` is a mutator method called right here; otherwise the
        label names the project function that (transitively) mutates.
        """
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in GRAPH_MUTATORS:
            return True, func.attr
        target = self.resolve_call(call, info)
        if target is not None and self.functions[target].mutates_graph:
            return False, self.functions[target].simple_name
        return None

