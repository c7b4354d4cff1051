"""Command line for reprolint: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean (or warnings only), 1 error-severity findings,
2 unreadable/unparsable input, broken baseline, or usage error.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.analysis.engine import (
    PROJECT_RULES,
    RULES,
    LintConfig,
    apply_baseline,
    exit_code,
    format_findings,
    load_baseline,
    run_paths,
    write_baseline,
)

# importing the package populates both rule registries
import repro.analysis as _analysis  # noqa: F401


def _parse_ids(raw: str | None) -> frozenset[str] | None:
    if raw is None:
        return None
    return frozenset(part.strip() for part in raw.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "Project-specific AST lint for the Quota/Seed codebase "
            "(per-file rules R1-R6, project concurrency rules R7-R11; "
            "see docs/DEVELOPMENT.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--no-scope",
        action="store_true",
        help="apply scoped rules (R2, R6, R11) to every linted file",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="report only findings not present in this baseline snapshot",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="snapshot the current findings to FILE and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry (both families) and exit",
    )
    return parser


def list_rules() -> str:
    lines = []
    for heading, registry in (
        ("per-file rules", RULES),
        ("project rules", PROJECT_RULES),
    ):
        lines.append(f"# {heading}")
        for rule_id, cls in registry.items():
            lines.append(f"{rule_id}  {cls.name} [{cls.severity}]")
            lines.append(f"    {cls.rationale}")
            if cls.example:
                lines.append(f"    e.g. {cls.example}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0
    select = _parse_ids(args.select)
    known = RULES.keys() | PROJECT_RULES.keys()
    unknown = (select or frozenset()) - known
    if unknown:
        print(f"unknown rule ids: {sorted(unknown)}", file=sys.stderr)
        return 2
    config = LintConfig(
        select=select,
        ignore=_parse_ids(args.ignore) or frozenset(),
        restrict_scopes=not args.no_scope,
    )
    findings, errors = run_paths(args.paths, config)
    if args.write_baseline:
        write_baseline(args.write_baseline, findings)
        print(
            f"reprolint: wrote baseline with {len(findings)} finding(s) "
            f"to {args.write_baseline}",
            file=sys.stderr,
        )
        return 0
    suppressed = 0
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        findings, suppressed = apply_baseline(findings, baseline)
    output = format_findings(findings, args.format)
    if output:
        print(output)
    for error in errors:
        print(error, file=sys.stderr)
    status = exit_code(findings, errors)
    if args.format == "text":
        noun = "finding" if len(findings) == 1 else "findings"
        extras = ""
        if suppressed:
            extras += f", {suppressed} baselined"
        if errors:
            extras += f", {len(errors)} unparsable file(s)"
        print(
            f"reprolint: {len(findings)} {noun}{extras}",
            file=sys.stderr,
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
