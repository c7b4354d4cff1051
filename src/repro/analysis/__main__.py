"""Command line for reprolint: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean, 1 findings, 2 unreadable/unparsable input or
usage error.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.analysis.engine import exit_code, run_paths


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "Project lint for the Quota/Seed codebase: metric names (R5), "
            "the mutex discipline (R7, R9, R11) and CSR-view lifetime "
            "(R10); see docs/DEVELOPMENT.md"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint as one project (default: src)",
    )
    args = parser.parse_args(argv)
    findings, errors = run_paths(args.paths)
    for finding in findings:
        print(finding.format_text())
    for error in errors:
        print(error, file=sys.stderr)
    noun = "finding" if len(findings) == 1 else "findings"
    extras = f", {len(errors)} unparsable file(s)" if errors else ""
    print(f"reprolint: {len(findings)} {noun}{extras}", file=sys.stderr)
    return exit_code(findings, errors)


if __name__ == "__main__":
    raise SystemExit(main())
