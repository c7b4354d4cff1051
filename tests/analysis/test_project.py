"""Tests for the project-wide analysis layer (repro.analysis.project).

These cover the dataflow machinery the concurrency rules are built on:
module naming, call resolution, the lock-context statement walker, the
entry-context fixpoint, and the transitive function summaries.
"""

import textwrap

from repro.analysis.project import ProjectIndex, lockish, module_name_for

def build(**sources):
    """ProjectIndex from ``name="source"`` kwargs (name -> name.py)."""
    return ProjectIndex.from_sources(
        {
            f"{name}.py": textwrap.dedent(source)
            for name, source in sources.items()
        }
    )


class TestNaming:
    def test_repro_paths_get_dotted_names(self):
        assert module_name_for("src/repro/ppr/csr.py") == "repro.ppr.csr"
        assert module_name_for("src/repro/serving/__init__.py") == (
            "repro.serving"
        )

    def test_fixture_paths_use_stem(self):
        assert module_name_for("helper.py") == "helper"
        assert module_name_for("/tmp/x/helper.py") == "helper"

    def test_lockish_names(self):
        assert lockish("_lock")
        assert lockish("seed_lock")
        assert lockish("MUTEX".lower())
        assert not lockish("_cond")
        assert not lockish("blocker")


class TestSymbolsAndCalls:
    def test_functions_and_methods_indexed(self):
        index = build(
            mod="""
            def free(): pass

            class Box:
                def method(self): pass
            """
        )
        assert "mod.free" in index.functions
        assert "mod.Box.method" in index.functions

    def test_self_method_resolution(self):
        index = build(
            mod="""
            class Box:
                def outer(self):
                    self.inner()

                def inner(self): pass
            """
        )
        outer = index.functions["mod.Box.outer"]
        assert outer.callees == {"mod.Box.inner"}

    def test_import_alias_resolution(self):
        index = build(
            helper="""
            def util(): pass
            """,
            mod="""
            from helper import util

            def caller():
                util()
            """,
        )
        assert index.functions["mod.caller"].callees == {"helper.util"}

    def test_unique_name_fallback(self):
        index = build(
            helper="""
            def very_specific_helper(): pass
            """,
            mod="""
            def caller(obj):
                obj.very_specific_helper()
            """,
        )
        assert index.functions["mod.caller"].callees == {
            "helper.very_specific_helper"
        }

    def test_container_method_names_never_unique_resolved(self):
        # a project function named `append` must not swallow list.append
        index = build(
            helper="""
            def append(): pass
            """,
            mod="""
            def caller(items):
                items.append(1)
            """,
        )
        assert index.functions["mod.caller"].callees == set()

    def test_ambiguous_names_stay_unresolved(self):
        index = build(
            a="def helper(): pass",
            b="def helper(): pass",
            mod="""
            def caller(x):
                x.helper()
            """,
        )
        assert index.functions["mod.caller"].callees == set()


class TestLockContext:
    def test_plain_mutex_with_block(self):
        index = build(
            mod="""
            class R:
                def f(self):
                    with self._seed_lock:
                        self.g()

                def g(self): pass
            """
        )
        call = next(index.functions["mod.R.f"].iter_events("call"))
        assert "R._seed_lock" in call.held

    def test_explicit_acquire_release_pair(self):
        index = build(
            mod="""
            class R:
                def f(self):
                    self._lock.acquire()
                    self.inside()
                    self._lock.release()
                    self.outside()

                def inside(self): pass
                def outside(self): pass
            """
        )
        events = [
            e
            for e in index.functions["mod.R.f"].iter_events("call")
        ]
        held_by_line = {e.line: e.held for e in events}
        assert "R._lock" in held_by_line[5]
        assert held_by_line[7] == ()

    def test_release_in_finally_clears_context_after_try(self):
        index = build(
            mod="""
            class R:
                def f(self):
                    self._lock.acquire(timeout=0.0)
                    try:
                        self.inside()
                    finally:
                        self._lock.release()
                    self.outside()

                def inside(self): pass
                def outside(self): pass
            """
        )
        events = list(index.functions["mod.R.f"].iter_events("call"))
        by_line = {e.line: e.held for e in events}
        assert "R._lock" in by_line[6]
        assert by_line[9] == ()

    def test_nested_defs_not_walked_under_context(self):
        index = build(
            mod="""
            class R:
                def f(self):
                    with self._lock:
                        def later():
                            self.g()
                        return later

                def g(self): pass
            """
        )
        # the nested def's body runs later, under unknown context —
        # no call event attributed to f's critical section
        assert list(index.functions["mod.R.f"].iter_events("call")) == []


class TestEntryHoldsFixpoint:
    def test_entry_context_propagates_through_calls(self):
        index = build(
            mod="""
            class R:
                def top(self):
                    with self._lock:
                        self.mid()

                def mid(self):
                    self.leaf()

                def leaf(self): pass
            """
        )
        assert "R._lock" in index.functions["mod.R.mid"].entry_holds
        assert "R._lock" in index.functions["mod.R.leaf"].entry_holds

    def test_entry_context_is_union_over_sites(self):
        index = build(
            mod="""
            class R:
                def locked_caller(self):
                    with self._lock:
                        self.shared()

                def unlocked_caller(self):
                    self.shared()

                def shared(self): pass
            """
        )
        # may-analysis: called from both contexts -> possibly under lock
        assert "R._lock" in index.functions["mod.R.shared"].entry_holds


class TestSummaries:
    def test_transitive_mutates_graph(self):
        index = build(
            mod="""
            def leaf(g):
                g.add_edge(1, 2)

            def mid(g):
                leaf(g)

            def top(g):
                mid(g)
            """
        )
        assert index.functions["mod.leaf"].mutates_graph
        assert index.functions["mod.mid"].mutates_graph
        assert index.functions["mod.top"].mutates_graph

    def test_transitive_returns_view(self):
        index = build(
            mod="""
            def direct(g):
                return csr_view(g)

            def indirect(g):
                return direct(g)

            def via_variable(g):
                view = direct(g)
                return view
            """
        )
        assert index.functions["mod.direct"].returns_view
        assert index.functions["mod.indirect"].returns_view
        assert index.functions["mod.via_variable"].returns_view

    def test_non_view_functions_not_flagged(self):
        index = build(
            mod="""
            def plain(g):
                return len(g)
            """
        )
        assert not index.functions["mod.plain"].returns_view
        assert not index.functions["mod.plain"].mutates_graph


class TestGuardAnnotations:
    def test_guard_collected(self):
        index = build(
            mod="""
            class R:
                def __init__(self):
                    self._flag = False  # guarded-by: self._state_lock
                    self._items = []  # guarded-by: self._lock
            """
        )
        assert index.guarded[("R", "_flag")] == (
            "R._state_lock", "mod.py", 4
        )
        assert index.guarded[("R", "_items")][0] == "R._lock"
