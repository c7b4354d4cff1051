"""Every name has one import path: the module that defines it.

A package ``__init__`` re-exports nothing, so importing a package loads
nothing but itself, and a process loads exactly the modules it names
(``tests/test_import_hygiene.py`` checks that in fresh interpreters).
The one exception is ``repro.obs``, which keeps the two metrics names
``benchmarks/e2e/probe.py`` imports from it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
OBS_INIT = SRC / "obs" / "__init__.py"


def parse(path):
    return ast.parse(path.read_text(), str(path))


def imports(tree):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def all_names(tree):
    """The names listed in a module-level ``__all__``, or None."""
    for node in tree.body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any(getattr(t, "id", None) == "__all__" for t in targets):
            return [elt.value for elt in node.value.elts]
    return None


def defined_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                names.update(
                    n.id for n in ast.walk(target) if isinstance(n, ast.Name)
                )
    return names


def test_package_inits_import_nothing_and_export_nothing():
    offenders = []
    for path in sorted(SRC.rglob("__init__.py")):
        tree = parse(path)
        if path != OBS_INIT and imports(tree):
            offenders.append(f"{path.relative_to(SRC)}: import")
        if all_names(tree) is not None:
            offenders.append(f"{path.relative_to(SRC)}: __all__")
    assert not offenders, offenders


def test_obs_keeps_only_the_two_names_the_probe_imports():
    (node,) = imports(parse(OBS_INIT))
    assert isinstance(node, ast.ImportFrom)
    assert node.module == "repro.obs.metrics"
    assert [(a.name, a.asname) for a in node.names] == [
        ("MetricsRegistry", None), ("get_metrics", None)
    ]


def test_no_module_re_exports_a_name():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = parse(path)
        where = path.relative_to(SRC)
        listed = all_names(tree) or []
        offenders += [
            f"{where}: __all__ lists {name}, defined elsewhere"
            for name in sorted(set(listed) - defined_names(tree))
        ]
        offenders += [
            f"{where}:{node.lineno}: imports {alias.name} as {alias.name}"
            for node in imports(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.asname == alias.name
        ]
    assert not offenders, offenders
