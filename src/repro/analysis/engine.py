"""reprolint runner: parse every file once, index once, run every rule.

Exit codes (:func:`exit_code`): 0 clean, 1 findings, 2 unreadable or
unparsable input.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from pathlib import Path

from repro.analysis.project import ProjectIndex, ProjectModule
from repro.analysis.rules import Finding, lint


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Yield every .py file under the given files/directories, sorted."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py" and path.is_file():
            yield path


def run_paths(
    paths: Sequence[str | Path],
) -> tuple[list[Finding], list[str]]:
    """Lint files/directories as one project.

    Returns ``(findings, errors)`` where ``errors`` are files that
    could not be read or parsed (reported, never silently skipped);
    the rules run over every file that parsed.
    """
    modules: list[ProjectModule] = []
    errors: list[str] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            errors.append(f"{path}: unreadable ({exc})")
            continue
        try:
            modules.append(ProjectModule(str(path), source))
        except SyntaxError as exc:
            errors.append(f"{path}: syntax error ({exc.msg})")
    return lint(ProjectIndex(modules)), errors


def run_sources(sources: Mapping[str, str]) -> list[Finding]:
    """Lint in-memory ``{path: source}`` as one project (tests)."""
    return lint(ProjectIndex.from_sources(sources))


def exit_code(findings: Sequence[Finding], errors: Sequence[str]) -> int:
    """0 clean; 1 any finding; 2 unreadable/unparsable input."""
    if errors:
        return 2
    return 1 if findings else 0
