#!/usr/bin/env python3
"""Count code lines: non-blank, non-comment, non-docstring.

    python tools/sloc.py <file-or-directory>...

Prints one ``<count>  <path>`` row per ``.py`` file and a total.  A line
counts when it carries at least one token that is neither a comment,
whitespace, nor part of a docstring (docstring spans come from ``ast``,
tokens from ``tokenize``), so reformatting a statement over more or
fewer lines changes the count but comments and docstrings never do.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def sloc(path: Path) -> int:
    """Code lines of one Python source file."""
    docstring_lines: set[int] = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            docstring_lines.update(range(doc.lineno, (doc.end_lineno or 0) + 1))
    code_lines: set[int] = set()
    with tokenize.open(path) as handle:
        for token in tokenize.generate_tokens(handle.readline):
            if token.type not in _NON_CODE:
                code_lines.update(range(token.start[0], token.end[0] + 1))
    return len(code_lines - docstring_lines)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    paths = [Path(arg) for arg in argv]
    files = [
        f for p in paths for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])
    ]
    counts = [(sloc(f), f) for f in files]
    for count, f in counts:
        print(f"{count:6d}  {f}")
    print(f"{sum(c for c, _ in counts):6d}  total ({len(counts)} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
