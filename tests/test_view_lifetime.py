"""CSR-view lifetime, checked on the source.

A CSR view shares the graph's row arrays, which a graph mutation
patches in place, so reads through a view taken before the mutation
are undefined.  No function under ``src/repro`` both binds a
view to a local (``csr_view(...)``, or any ``<x>.view`` read) and calls
a graph mutator: code that mutates re-reads the view afterwards.
"""

import ast
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: methods that mutate a graph: DynamicGraph's, an algorithm's
#: ``apply_update``, and ``EdgeUpdate.apply(graph)``
GRAPH_MUTATORS = frozenset({"add_edge", "remove_edge", "toggle_edge", "add_node",
                            "remove_node", "restore", "apply_update", "apply"})


def called(node):
    """``f`` for a call ``f(...)`` or ``x.f(...)``, else None."""
    func = getattr(node, "func", None)
    return getattr(func, "attr", getattr(func, "id", None))


def binds_a_view(node):
    """``view = csr_view(...)`` or ``view = <x>.view``, to a local name."""
    value = getattr(node, "value", None)
    targets = getattr(node, "targets", [getattr(node, "target", None)])
    return (
        isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr))
        and (called(value) == "csr_view" or getattr(value, "attr", None) == "view")
        and any(isinstance(target, ast.Name) for target in targets)
    )


def views_held_across_mutation(tree):
    """Lines of the functions that bind a view and call a mutator."""
    return [
        func.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(binds_a_view(node) for node in ast.walk(func))
        and any(called(node) in GRAPH_MUTATORS for node in ast.walk(func))
    ]


def test_no_view_is_held_across_a_graph_mutation():
    offences = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in views_held_across_mutation(ast.parse(path.read_text("utf-8")))
    ]
    assert not offences, offences


def test_kernel_and_mutator_names_are_defined():
    # a mutator name that nothing defines can never match: the check
    # would silently see less than it says
    defined = {
        node.name
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert GRAPH_MUTATORS - defined == set()


#: case: (the body of one function, whether the check flags it)
ONE_FUNCTION = {
    "attribute-view": ("view = self.view\nself.graph.add_edge(1, 2)", True),
    "direct-csr-view": ("view = csr_view(g)\ng.add_edge(1, 2)", True),
    "stale-use-after-mutation": ("view = csr_view(g)\ng.remove_edge(1, 2)\nview.n",
                                 True),
    "apply-update": ("view = csr_view(g)\nalgorithm.apply_update(update)", True),
    "walrus-view": ("if (view := csr_view(g)).n:\n    g.add_node(3)", True),
    # mutates, then takes a view it does not hold
    "reread-after-mutation": ("g.toggle_edge(1, 2)\nreturn csr_view(g).n", False),
    # a view from a helper, a mutation inside a helper: neither is seen
    "helpers-out-of-sight": ("view = get_view(g)\nflush(g)\nreturn view.n", False),
}


@pytest.mark.parametrize("case", list(ONE_FUNCTION))
def test_the_check_on_one_function(case):
    body, flagged = ONE_FUNCTION[case]
    tree = ast.parse("def f(g):\n" + textwrap.indent(body, "    "))
    assert views_held_across_mutation(tree) == ([1] if flagged else [])
