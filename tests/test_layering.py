"""The package layering of DESIGN.md §5, checked on the source.

Each lower package may import, at run time, only the ``repro``
packages in its row of the table below (and itself).  Imports under
``if TYPE_CHECKING:`` are type-only and do not count; imports inside
functions do, because they run.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

ALLOWED = {
    "graph": set(),
    "obs": set(),
    "ppr": {"graph", "obs"},
    "cache": {"graph", "obs"},
    "queueing": {"cache", "graph"},
    "core": {"ppr", "queueing", "cache", "graph", "obs"},
}


def is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def runtime_imports(tree):
    """(line, module) of every import not guarded by TYPE_CHECKING."""
    found = []

    def visit(node):
        if isinstance(node, ast.If) and is_type_checking(node.test):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.append((node.lineno, node.module))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


@pytest.mark.parametrize("package", sorted(ALLOWED))
def test_runtime_imports_follow_the_layering(package):
    allowed = ALLOWED[package] | {package}
    violations = []
    for path in sorted((SRC / package).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, module in runtime_imports(tree):
            parts = module.split(".")
            if parts[0] != "repro" or len(parts) < 2:
                continue
            if parts[1] not in allowed:
                violations.append(f"{path.relative_to(SRC)}:{line} {module}")
    assert not violations, violations
