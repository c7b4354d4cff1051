"""Positive + negative tests for the rules R7, R9, R10 and R11.

Every rule gets fixture code with an injected violation asserted at
the right file:line, plus a clean variant that must not flag.  The
cross-function snapshot-escape case additionally proves the
interprocedural pass catches what a single-function view cannot.
"""

import textwrap
from pathlib import Path

from repro.analysis import run_sources


def lint_project(rule_ids=None, **sources):
    """Findings of ``rule_ids`` over ``name="source"`` fixtures.

    Fixtures live under ``serving/`` so the path-scoped R11 applies.
    """
    findings = run_sources(
        {
            f"serving/{name}.py": textwrap.dedent(source)
            for name, source in sources.items()
        }
    )
    return [f for f in findings if rule_ids is None or f.rule_id in rule_ids]


def locations(findings):
    return [(f.rule_id, Path(f.path).name, f.line) for f in findings]


class TestR7LockOrder:
    def test_recursive_mutex_flagged(self):
        findings = lint_project(
            ["R7"],
            mod="""
            class R:
                def f(self):
                    with self._lock:
                        with self._lock:
                            pass
            """,
        )
        assert locations(findings) == [("R7", "mod.py", 5)]
        assert "non-reentrant" in findings[0].message

    def test_interprocedural_reacquire_flagged(self):
        # the acquisition and the held context live in different
        # functions — only the entry-context fixpoint can see this
        findings = lint_project(
            ["R7"],
            mod="""
            class R:
                def top(self):
                    with self._lock:
                        self.helper()

                def helper(self):
                    with self._lock:
                        pass
            """,
        )
        assert locations(findings) == [("R7", "mod.py", 8)]

    def test_cross_function_order_cycle_flagged(self):
        findings = lint_project(
            ["R7"],
            mod="""
            class R:
                def path_one(self):
                    with self._lock_a:
                        with self._lock_b:
                            pass

                def path_two(self):
                    with self._lock_b:
                        with self._lock_a:
                            pass
            """,
        )
        assert len(findings) >= 1
        assert all(f.rule_id == "R7" for f in findings)
        assert "cycle" in findings[0].message

    def test_consistent_order_is_clean(self):
        findings = lint_project(
            ["R7"],
            mod="""
            class R:
                def one(self):
                    with self._update_lock:
                        with self._seed_lock:
                            pass

                def two(self):
                    with self._update_lock:
                        with self._records_lock:
                            pass
            """,
        )
        assert findings == []

    def test_sequential_reacquire_is_clean(self):
        # release before re-acquire: no overlap, no violation
        findings = lint_project(
            ["R7"],
            mod="""
            class R:
                def f(self):
                    with self._lock:
                        pass
                    with self._lock:
                        pass
            """,
        )
        assert findings == []


class TestR9GuardedBy:
    FIXTURE = """
    class R:
        def __init__(self):
            self._degraded = False  # guarded-by: self._state_lock
            self.records = []  # guarded-by: self._records_lock

        def good_flag(self):
            with self._state_lock:
                self._degraded = True

        def bad_flag(self):
            self._degraded = True

        def bad_flag_wrong_lock(self):
            with self._records_lock:
                self._degraded = True

        def good_append(self, r):
            with self._records_lock:
                self.records.append(r)

        def bad_append(self, r):
            self.records.append(r)
    """

    def test_unlocked_and_wrong_lock_writes_flagged(self):
        findings = lint_project(["R9"], mod=self.FIXTURE)
        assert locations(findings) == [
            ("R9", "mod.py", 12),  # bad_flag
            ("R9", "mod.py", 16),  # bad_flag_wrong_lock
            ("R9", "mod.py", 23),  # bad_append
        ]

    def test_init_is_exempt(self):
        findings = lint_project(["R9"], mod=self.FIXTURE)
        assert all(f.line > 5 for f in findings)

    def test_interprocedural_guard_satisfied(self):
        # helper only ever entered under the declared mutex
        findings = lint_project(
            ["R9"],
            mod="""
            class R:
                def __init__(self):
                    self._flag = False  # guarded-by: self._lock

                def top(self):
                    with self._lock:
                        self._set()

                def _set(self):
                    self._flag = True
            """,
        )
        assert findings == []

    def test_mutating_method_counts_as_write(self):
        findings = lint_project(
            ["R9"],
            mod="""
            class R:
                def __init__(self):
                    self._entries = {}  # guarded-by: self._lock

                def bad(self, k):
                    self._entries.pop(k, None)
            """,
        )
        assert locations(findings) == [("R9", "mod.py", 7)]


class TestR10SnapshotEscape:
    # the canonical cross-function case: acquisition hidden in one
    # helper, mutation hidden in another — invisible per-function
    CROSS_FUNCTION = """
    def get_view(g):
        return csr_view(g)

    def flush(g):
        g.add_edge(1, 2)

    def serve(g):
        view = get_view(g)
        flush(g)
        return view.out_neighbors_of(0)
    """

    def test_cross_function_escape_flagged(self):
        findings = lint_project(["R10"], mod=self.CROSS_FUNCTION)
        assert locations(findings) == [("R10", "mod.py", 11)]
        assert "mutates the graph" in findings[0].message

    def test_single_function_pass_misses_it(self):
        # the same caller without the helpers' bodies in the project:
        # neither call resolves, so nothing is known to return a view or
        # to mutate — the finding above needs the whole-project index
        findings = lint_project(
            ["R10"],
            mod="""
            def serve(g):
                view = get_view(g)
                flush(g)
                return view.out_neighbors_of(0)
            """,
        )
        assert findings == []

    def test_local_direct_case_left_to_r3(self):
        # both acquisition and mutation are direct and local: the case
        # the former per-file R3 covered, reported by R10 once
        findings = lint_project(
            ["R10"],
            mod="""
            def f(g):
                view = csr_view(g)
                g.add_edge(1, 2)
                return view.out_neighbors_of(0)
            """,
        )
        assert locations(findings) == [("R10", "mod.py", 5)]
        assert "graph mutation 'add_edge()'" in findings[0].message

    def test_reobtained_view_is_clean(self):
        findings = lint_project(
            ["R10"],
            mod="""
            def get_view(g):
                return csr_view(g)

            def flush(g):
                g.add_edge(1, 2)

            def serve(g):
                view = get_view(g)
                flush(g)
                view = get_view(g)
                return view.out_neighbors_of(0)
            """,
        )
        assert findings == []


class TestR11MetricInCritical:
    def test_registry_call_under_mutex_flagged(self):
        findings = lint_project(
            ["R11"],
            mod="""
            class R:
                def f(self):
                    with self._records_lock:
                        self.metrics.counter("serving.faults").inc()
            """,
        )
        assert locations(findings) == [("R11", "mod.py", 5)]

    def test_time_module_not_confused_with_registry(self):
        findings = lint_project(
            ["R11"],
            mod="""
            import time

            class R:
                def f(self):
                    with self._records_lock:
                        return time.time()
            """,
        )
        assert findings == []

    def test_scoped_to_serving_paths(self):
        source = textwrap.dedent(
            """
            class R:
                def f(self, dt):
                    with self._lock:
                        self.metrics.counter("cache.hits").inc()
            """
        )
        findings = run_sources(
            {
                "src/repro/serving/thing.py": source,
                "src/repro/cache/thing.py": source,
            }
        )
        assert [(f.rule_id, f.path) for f in findings] == [
            ("R11", "src/repro/serving/thing.py")
        ]
