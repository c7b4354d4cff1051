"""The reprolint rules, each run once over the whole project index.

=====  ====================  ===============================================
R5     metric-name           metric-name literals must be registered in
                             repro.obs.names, under the right kind
R7     lock-order            self-deadlocks (re-acquiring a held mutex) and
                             cyclic acquisition order
R9     guarded-by            writes to ``# guarded-by:`` attributes outside
                             the declared mutex
R10    snapshot-escape       a CSR view used after a graph mutation
R11    metric-in-critical    metric-registry access under a mutex on the
                             serving paths
=====  ====================  ===============================================

The lock rules are *may*-analyses over the union of contexts a
function can be entered under; the model's assumptions and limits are
documented in :mod:`repro.analysis.project` and docs/DEVELOPMENT.md.
"""

from __future__ import annotations

import ast
import dataclasses
from collections import deque
from collections.abc import Iterator
from pathlib import Path

from repro.analysis.project import (
    MUTATING_METHODS,
    Event,
    FunctionInfo,
    ProjectIndex,
    expr_text,
    is_csr_view_call,
)


@dataclasses.dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def format_text(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule_id} {self.message}"
        )


class Rule:
    """One invariant, checked over the whole :class:`ProjectIndex`."""

    rule_id: str = ""

    def check(self, project: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        return Finding(self.rule_id, path, line, col, message)


def _ordered_events(info: FunctionInfo) -> list[Event]:
    """Events in source order (walk order is close; sorting pins it)."""
    return sorted(info.events, key=lambda e: (e.line, e.col))


# ----------------------------------------------------------------------
# R5: metric-name literals must be registered
# ----------------------------------------------------------------------
def metric_registry() -> dict[str, frozenset[str]]:
    """``COUNTERS``/``HISTOGRAMS``/``GAUGES`` of repro/obs/names.py.

    Parsed with :mod:`ast`, not imported, so linting needs no package
    import; read once per lint run.
    """
    names_path = Path(__file__).resolve().parent.parent / "obs" / "names.py"
    registry: dict[str, frozenset[str]] = {
        kind: frozenset() for kind in MetricNameRule.KINDS
    }
    tree = ast.parse(names_path.read_text(encoding="utf-8"))
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id in registry:
                registry[target.id] = frozenset(
                    n.value
                    for n in ast.walk(node.value)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)
                )
    return registry


class MetricNameRule(Rule):
    """Metric-name literals must match :mod:`repro.obs.names`.

    Counter/histogram/gauge names are the contract between instrumented
    code and reports: a typo'd counter, or a histogram observed under a
    counter's name, silently splits a time series and attributes cost
    to a metric nobody charts.
    """

    rule_id = "R5"

    METHODS = {
        "counter": "COUNTERS",
        "histogram": "HISTOGRAMS",
        "time": "HISTOGRAMS",
        "gauge": "GAUGES",
    }
    KINDS = ("COUNTERS", "HISTOGRAMS", "GAUGES")

    def check(self, project: ProjectIndex) -> Iterator[Finding]:
        registry = metric_registry()
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call) or not isinstance(
                    node.func, ast.Attribute
                ):
                    continue
                kind = self.METHODS.get(node.func.attr)
                if kind is None or not node.args:
                    continue
                first = node.args[0]
                if not (
                    isinstance(first, ast.Constant)
                    and isinstance(first.value, str)
                ) or first.value in registry[kind]:
                    continue
                hint = "; register it in repro/obs/names.py"
                for other in self.KINDS:
                    if other != kind and first.value in registry[other]:
                        hint = (
                            f" (registered as a {other.lower()[:-1]} — "
                            "wrong metric kind)"
                        )
                        break
                yield self.finding(
                    module.path,
                    first.lineno,
                    first.col_offset,
                    f"metric name '{first.value}' passed to "
                    f".{node.func.attr}() is not a registered "
                    f"{kind.lower()[:-1]} name{hint}",
                )


# ----------------------------------------------------------------------
# R7: lock order / self-deadlock
# ----------------------------------------------------------------------
class LockOrderRule(Rule):
    """Self-deadlocks and cyclic lock-acquisition order.

    * **Self-deadlock** — re-acquiring a mutex this thread may already
      hold blocks the thread on itself.
    * **Order cycle** — thread 1 takes A then B while thread 2 takes B
      then A.  Every acquisition made while another lock is held
      contributes a directed edge; any cycle in that graph is a
      potential deadlock.
    """

    rule_id = "R7"

    def check(self, project: ProjectIndex) -> Iterator[Finding]:
        #: (from_lock, to_lock) -> first acquisition site
        edges: dict[tuple[str, str], tuple[str, int, int, str]] = {}
        for info in project.functions.values():
            for event in info.iter_events("acquire"):
                acquired = event.data
                assert isinstance(acquired, str)
                held = info.effective(event)
                if acquired in held:
                    yield self.finding(
                        info.module.path,
                        event.line,
                        event.col,
                        f"acquiring {acquired} while it may already be "
                        f"held in {info.qualname}: re-acquiring a "
                        "non-reentrant mutex blocks this thread on itself",
                    )
                for prior in sorted(held - {acquired}):
                    edges.setdefault(
                        (prior, acquired),
                        (
                            info.module.path,
                            event.line,
                            event.col,
                            f"{acquired} while holding {prior} in "
                            f"{info.qualname}",
                        ),
                    )
        yield from self._order_cycles(edges)

    def _order_cycles(
        self, edges: dict[tuple[str, str], tuple[str, int, int, str]]
    ) -> Iterator[Finding]:
        graph: dict[str, set[str]] = {}
        for src, dst in edges:
            graph.setdefault(src, set()).add(dst)
        for (src, dst), (path, line, col, label) in sorted(edges.items()):
            cycle = self._path(graph, dst, src)
            if cycle is None:
                continue
            chain = " -> ".join([src, *cycle])
            yield self.finding(
                path,
                line,
                col,
                f"lock-order cycle: acquiring {label} conflicts with "
                f"the reverse acquisition order {chain} elsewhere in "
                "the project; pick one global order",
            )

    @staticmethod
    def _path(
        graph: dict[str, set[str]], start: str, goal: str
    ) -> list[str] | None:
        """Shortest edge path start..goal, or None (BFS, deterministic)."""
        queue = deque([[start]])
        seen = {start}
        while queue:
            trail = queue.popleft()
            node = trail[-1]
            if node == goal:
                return trail
            for succ in sorted(graph.get(node, ())):
                if succ not in seen:
                    seen.add(succ)
                    queue.append(trail + [succ])
        return None


# ----------------------------------------------------------------------
# R9: guarded-by annotations
# ----------------------------------------------------------------------
class GuardedByRule(Rule):
    """Writes to ``# guarded-by:`` attributes need the declared mutex.

    ``self._hits = 0  # guarded-by: self._lock`` on the attribute's
    assignment in ``__init__`` declares the contract; every other
    method that assigns, augments, deletes, subscript-stores, or calls
    a mutating container method on the attribute must do so in a
    context where the declared mutex may be held.  ``__init__``/
    ``__new__`` are exempt — the object is not shared yet.
    """

    rule_id = "R9"

    EXEMPT = frozenset({"__init__", "__new__"})

    def check(self, project: ProjectIndex) -> Iterator[Finding]:
        if not project.guarded:
            return
        for info in project.functions.values():
            if info.class_name is None or info.simple_name in self.EXEMPT:
                continue
            for event in info.events:
                attr = self._written_attr(event)
                if attr is None:
                    continue
                guard = project.guarded.get((info.class_name, attr))
                if guard is None:
                    continue
                lock, decl_path, decl_line = guard
                if lock in info.effective(event):
                    continue
                yield self.finding(
                    info.module.path,
                    event.line,
                    event.col,
                    f"write to 'self.{attr}' in {info.qualname} outside "
                    f"its declared lock {lock} (declared at "
                    f"{decl_path}:{decl_line}); acquire the lock or fix "
                    "the annotation",
                )

    @staticmethod
    def _written_attr(event: Event) -> str | None:
        if event.kind == "attr_write":
            attr = event.data
            assert isinstance(attr, str)
            return attr
        if event.kind == "call":
            call = event.data
            assert isinstance(call, ast.Call)
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in ("self", "cls")
            ):
                return func.value.attr
        return None


# ----------------------------------------------------------------------
# R10: CSR-snapshot escape
# ----------------------------------------------------------------------
class SnapshotEscapeRule(Rule):
    """A CSR view must not outlive its snapshot.

    ``csr_view()`` facades share the per-graph store's arrays, which
    the incremental CSR layer patches in place, so adjacency reads
    through a view obtained before a mutation are undefined.
    ``view = csr_view(g); g.add_edge(...); view.use()`` is flagged,
    also when the mutation hides in a project function that
    (transitively) mutates the graph, or the view came from a helper
    that (transitively) returns ``csr_view(...)``.
    """

    rule_id = "R10"

    def check(self, project: ProjectIndex) -> Iterator[Finding]:
        for info in project.functions.values():
            yield from self._check_function(project, info)

    def _check_function(
        self, project: ProjectIndex, info: FunctionInfo
    ) -> Iterator[Finding]:
        #: var -> the view was acquired directly (not via a helper)
        views: dict[str, bool] = {}
        #: var -> (stale label, staled-by-direct-mutator)
        stale: dict[str, tuple[str, bool]] = {}
        for event in _ordered_events(info):
            if event.kind == "view_assign":
                varname, call = event.data  # type: ignore[misc]
                assert isinstance(call, ast.Call)
                if project.call_yields_view(call, info):
                    views[varname] = is_csr_view_call(call)
                    stale.pop(varname, None)
                else:
                    views.pop(varname, None)
                    stale.pop(varname, None)
            elif event.kind == "call":
                call = event.data
                assert isinstance(call, ast.Call)
                verdict = project.call_mutates_graph(call, info)
                if verdict is None:
                    continue
                direct_mut, label = verdict
                for varname in views:
                    if varname not in stale:
                        stale[varname] = (label, direct_mut)
            elif event.kind == "load":
                varname = event.data
                assert isinstance(varname, str)
                if varname not in views or varname not in stale:
                    continue
                label, direct_mut = stale.pop(varname)
                how = (
                    f"graph mutation '{label}()'"
                    if direct_mut
                    else f"call to '{label}()' which mutates the graph"
                )
                via = (
                    ""
                    if views[varname]
                    else " (view obtained via a helper that returns csr_view)"
                )
                yield self.finding(
                    info.module.path,
                    event.line,
                    event.col,
                    f"CSR view '{varname}' in {info.qualname} "
                    f"used after {how}{via}; re-obtain the view "
                    "after mutating",
                )


# ----------------------------------------------------------------------
# R11: metric-registry access in serving critical sections
# ----------------------------------------------------------------------
class MetricInCriticalSectionRule(Rule):
    """No metric-registry calls under a mutex on the serving paths.

    ``MetricsRegistry`` is shared by every thread of a process;
    ``histogram()`` / ``counter()`` lookups allocate on first use and
    contend on the registry dict.  Under a mutex on the serving hot
    path that contention extends the critical section for every thread
    waiting on it.  Record the value first, observe after release.
    """

    rule_id = "R11"

    REGISTRY_METHODS = frozenset({"counter", "histogram", "gauge", "time"})
    #: path components of the serving hot paths (runtime, shard fabric,
    #: front door); files elsewhere are not checked
    SCOPE = ("serving", "shard", "api")

    def check(self, project: ProjectIndex) -> Iterator[Finding]:
        for info in project.functions.values():
            if not set(self.SCOPE) & set(Path(info.module.path).parts):
                continue
            for event in info.iter_events("call"):
                held = info.effective(event)
                if not held:
                    continue
                call = event.data
                assert isinstance(call, ast.Call)
                method = self._registry_call(call)
                if method is None:
                    continue
                yield self.finding(
                    info.module.path,
                    event.line,
                    event.col,
                    f"metric-registry call '.{method}()' inside the "
                    f"{min(held)} critical section in "
                    f"{info.qualname}; record the value and observe "
                    "after releasing the lock",
                )

    def _registry_call(self, call: ast.Call) -> str | None:
        func = call.func
        if (
            not isinstance(func, ast.Attribute)
            or func.attr not in self.REGISTRY_METHODS
        ):
            return None
        receiver = expr_text(func.value)
        if receiver is None:
            return None
        leaf = receiver.rsplit(".", 1)[-1].lower()
        if "metric" in leaf or "registry" in leaf:
            return func.attr
        return None


#: the one rule registry
RULES: tuple[Rule, ...] = (
    MetricNameRule(),
    LockOrderRule(),
    GuardedByRule(),
    SnapshotEscapeRule(),
    MetricInCriticalSectionRule(),
)


def lint(project: ProjectIndex) -> list[Finding]:
    """Every rule's findings over ``project``, sorted by location."""
    findings = [f for rule in RULES for f in rule.check(project)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings
