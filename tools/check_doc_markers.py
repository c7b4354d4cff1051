#!/usr/bin/env python3
"""Fail when a doc section outlives the code it describes.

    python tools/check_doc_markers.py [doc.md ...]   # default docs/DEVELOPMENT.md

A section carries ``<!-- staleness-marker: path:symbol -->`` comments,
``path`` relative to the repository root and ``symbol`` a top-level name
or ``Class.attr``.  Exits 1, naming each marker, when the file or the
symbol is gone (symbols are resolved with ``ast``, nothing is imported).
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MARKER = re.compile(r"<!--\s*staleness-marker:\s*(\S+?):([\w.]+)\s*-->")


def _names(body: list[ast.stmt]) -> dict[str, ast.stmt]:
    """Names a module or class body defines, by def/class/assignment."""
    found: dict[str, ast.stmt] = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update({t.id: node for t in targets if isinstance(t, ast.Name)})
    return found


def missing(path: str, symbol: str) -> bool:
    """True when ``path`` or the ``symbol`` it should define is gone."""
    source = ROOT / path
    if not source.is_file():
        return True
    body = ast.parse(source.read_bytes()).body
    for part in symbol.split("."):
        node = _names(body).get(part)
        if node is None:
            return True
        body = node.body if isinstance(node, ast.ClassDef) else []
    return False


def main(argv: list[str]) -> int:
    docs = [Path(arg) for arg in argv] or [ROOT / "docs" / "DEVELOPMENT.md"]
    stale = [
        f"{doc}: {path}:{symbol}"
        for doc in docs
        for path, symbol in MARKER.findall(doc.read_text())
        if missing(path, symbol)
    ]
    for line in stale:
        print(f"stale doc marker: {line}", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
