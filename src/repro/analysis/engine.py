"""reprolint engine: rule registry, suppressions, runner, reporting.

A small AST-based static-analysis framework for this repository's
domain invariants (see :mod:`repro.analysis.rules` for the rule pack).
It exists because the invariants that matter here — seeded randomness,
unit consistency of the cost model, CSR-view lifetimes — are invisible
to general-purpose linters.

Architecture
------------
* :class:`Rule` subclasses declare an id (``R1``..), severity, and a
  ``check(module)`` generator yielding :class:`Finding` objects.
  Registration is by decorator into :data:`RULES`.
* :class:`LintModule` wraps one parsed source file: path, AST, raw
  lines, and the suppression table extracted from
  ``# reprolint: disable=...`` comments.
* :func:`run_paths` walks files/directories, applies every selected
  rule, filters suppressed findings, and returns the survivors sorted
  by location.

Two rule families share the engine: per-file :class:`Rule` subclasses
(registered in :data:`RULES`) see one :class:`LintModule` at a time,
while :class:`ProjectRule` subclasses (registered in
:data:`PROJECT_RULES`) see a whole-project index — module graph, call
graph, and the lock-context dataflow of
:mod:`repro.analysis.project` — and power the interprocedural
concurrency rules R7-R11 in :mod:`repro.analysis.concurrency`.

Suppressions
------------
``# reprolint: disable=R2`` on the flagged line suppresses that rule
there (add a justifying comment — the docs treat a bare suppression as
a review smell).  ``# reprolint: disable-file=R6`` anywhere in the
file suppresses the rule for the whole file.  Several ids may be
given, comma-separated; free text after the ids is ignored so the
justification can share the comment.  A suppression naming an unknown
rule id is reported as a warning (``R0``) instead of silently doing
nothing — a typo'd id must not read as a working allowlist entry.

Baselines
---------
:func:`write_baseline` snapshots the current findings;
:func:`apply_baseline` filters a later run down to *new* findings
only.  Fingerprints deliberately exclude line numbers (they drift on
every unrelated edit): a finding matches the baseline when the same
``(rule, file, message)`` triple was snapshotted, with multiplicity.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import json
import re
import tokenize
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

#: finding severities, in increasing order of gravity
SEVERITIES = ("warning", "error")

#: pseudo rule id for suppression-hygiene warnings (unknown ids in a
#: ``# reprolint: disable=...`` comment); not in the registries, but
#: suppressible like any other id
SUPPRESSION_HYGIENE_ID = "R0"

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*"
    r"(?P<ids>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

#: ``# guarded-by: self._lock`` / ``# guarded-by: self._rwlock[write]``
#: — declares the lock context required to *write* the attribute
#: assigned on that line (rule R9; see docs/DEVELOPMENT.md)
_GUARDED_BY_RE = re.compile(
    r"#\s*guarded-by:\s*(?P<expr>[A-Za-z_][\w.]*)"
    r"(?:\[(?P<mode>read|write)\])?"
)


@dataclasses.dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a source location."""

    rule_id: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def format_text(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule_id} [{self.severity}] {self.message}"
        )

    def as_dict(self) -> dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Engine configuration (defaults match ``[tool.reprolint]``).

    ``restrict_scopes`` keeps the scoped rules (R2 on ``ppr``/``core``
    hot paths, R6 on the cost-model/queueing-theory files) limited to
    their configured paths; tests switch it off to lint fixtures
    anywhere.
    """

    select: frozenset[str] | None = None
    ignore: frozenset[str] = frozenset()
    restrict_scopes: bool = True
    #: path parts scoping R2 (float equality) to hot-path packages
    float_compare_parts: tuple[str, ...] = ("ppr", "core")
    #: file names scoping R6 (unit-suffix convention)
    unit_suffix_files: tuple[str, ...] = (
        "cost_models.py",
        "quota.py",
        "theory.py",
    )
    #: path parts scoping R11 (metric mutation in critical sections)
    #: to the serving hot paths (runtime, shard fabric, front door)
    metric_critical_parts: tuple[str, ...] = ("serving", "shard", "api")
    #: override for the metric-name registry (None = parse repro.obs.names)
    metric_counters: frozenset[str] | None = None
    metric_histograms: frozenset[str] | None = None
    metric_gauges: frozenset[str] | None = None


class LintModule:
    """One parsed source file plus its suppression table."""

    def __init__(self, path: str, source: str, config: LintConfig) -> None:
        self.path = path
        self.source = source
        self.config = config
        self.tree = ast.parse(source, filename=path)
        self.line_disables: dict[int, set[str]] = {}
        self.file_disables: set[str] = set()
        #: every id mentioned in a suppression, with the comment's line
        #: (for the unknown-id hygiene warning)
        self.suppression_ids: list[tuple[int, str]] = []
        #: line -> (lock expression, mode or None) from ``# guarded-by:``
        self.guard_annotations: dict[int, tuple[str, str | None]] = {}
        self._scan_suppressions()

    # ------------------------------------------------------------------
    def _scan_suppressions(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            comments = []
        for line, text in comments:
            guard = _GUARDED_BY_RE.search(text)
            if guard is not None:
                self.guard_annotations[line] = (
                    guard.group("expr"),
                    guard.group("mode"),
                )
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            ids = {part.strip() for part in match.group("ids").split(",")}
            self.suppression_ids.extend((line, rule_id) for rule_id in ids)
            if match.group(1) == "disable-file":
                self.file_disables |= ids
            else:
                self.line_disables.setdefault(line, set()).update(ids)

    def is_suppressed(self, finding: Finding) -> bool:
        if finding.rule_id in self.file_disables:
            return True
        return finding.rule_id in self.line_disables.get(finding.line, set())

    # ------------------------------------------------------------------
    def path_parts(self) -> tuple[str, ...]:
        return Path(self.path).parts

    def filename(self) -> str:
        return Path(self.path).name


class Rule:
    """Base class for reprolint rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``rationale`` and ``example`` feed ``--list-rules`` and the
    developer docs, keeping rule documentation next to the code.
    """

    rule_id: str = ""
    name: str = ""
    severity: str = "error"
    rationale: str = ""
    example: str = ""

    def applies_to(self, module: LintModule) -> bool:
        return True

    def check(self, module: LintModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: LintModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class ProjectRule:
    """Base class for whole-project (multi-file) rules.

    Where :class:`Rule` sees one module, a project rule's
    :meth:`check_project` sees a :class:`repro.analysis.project.
    ProjectIndex` — every parsed module plus the call graph and
    lock-context dataflow — and may yield findings in *any* of them.
    Suppression filtering still happens per finding, against the
    suppression table of the module the finding lands in.
    """

    rule_id: str = ""
    name: str = ""
    severity: str = "error"
    rationale: str = ""
    example: str = ""

    def check_project(self, project: object) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=path,
            line=line,
            col=col,
            message=message,
        )


#: rule-id -> rule class, in registration order
RULES: dict[str, type[Rule]] = {}

#: rule-id -> project-rule class, in registration order
PROJECT_RULES: dict[str, type[ProjectRule]] = {}


def _validate_rule(cls: type, known: Iterable[str]) -> None:
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in known:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    if cls.severity not in SEVERITIES:
        raise ValueError(f"{cls.rule_id}: unknown severity {cls.severity!r}")


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a per-file rule to the registry."""
    _validate_rule(cls, RULES.keys() | PROJECT_RULES.keys())
    RULES[cls.rule_id] = cls
    return cls


def register_project(cls: type[ProjectRule]) -> type[ProjectRule]:
    """Class decorator adding a project-wide rule to the registry."""
    _validate_rule(cls, RULES.keys() | PROJECT_RULES.keys())
    PROJECT_RULES[cls.rule_id] = cls
    return cls


def known_rule_ids() -> frozenset[str]:
    """Every registered rule id, both families, plus the hygiene id."""
    return frozenset(RULES) | frozenset(PROJECT_RULES) | {
        SUPPRESSION_HYGIENE_ID
    }


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Yield every .py file under the given files/directories, sorted."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if p.is_file()
            )
        elif path.suffix == ".py" and path.is_file():
            yield path


def _enabled(rule_id: str, config: LintConfig) -> bool:
    if config.select is not None and rule_id not in config.select:
        return False
    return rule_id not in config.ignore


def selected_rules(config: LintConfig) -> list[Rule]:
    """Instantiate the per-file rules enabled by ``select``/``ignore``."""
    return [
        cls() for rule_id, cls in RULES.items() if _enabled(rule_id, config)
    ]


def selected_project_rules(config: LintConfig) -> list[ProjectRule]:
    """Instantiate the project rules enabled by ``select``/``ignore``."""
    return [
        cls()
        for rule_id, cls in PROJECT_RULES.items()
        if _enabled(rule_id, config)
    ]


def suppression_hygiene(module: LintModule) -> list[Finding]:
    """Warn on suppressions naming rule ids that do not exist.

    A typo'd id (``disable=R22``) must not silently read as a working
    allowlist entry; the warning keeps exit codes unchanged (0) but
    surfaces the dead suppression.
    """
    known = known_rule_ids()
    findings = []
    for line, rule_id in module.suppression_ids:
        if rule_id in known:
            continue
        findings.append(
            Finding(
                rule_id=SUPPRESSION_HYGIENE_ID,
                severity="warning",
                path=module.path,
                line=line,
                col=0,
                message=(
                    f"suppression names unknown rule id '{rule_id}' "
                    "(it suppresses nothing); known ids: "
                    + ", ".join(sorted(known - {SUPPRESSION_HYGIENE_ID}))
                ),
            )
        )
    return findings


def lint_module(module: LintModule) -> list[Finding]:
    """Per-file rules + suppression hygiene over one parsed module."""
    findings: list[Finding] = []
    for rule in selected_rules(module.config):
        if not rule.applies_to(module):
            continue
        for finding in rule.check(module):
            if not module.is_suppressed(finding):
                findings.append(finding)
    for finding in suppression_hygiene(module):
        if not module.is_suppressed(finding):
            findings.append(finding)
    return findings


def run_source(
    source: str, path: str, config: LintConfig | None = None
) -> list[Finding]:
    """Lint one in-memory source string (the test entry point).

    Runs the per-file rules only; project rules need a
    :class:`~repro.analysis.project.ProjectIndex` (see
    :func:`run_paths` or ``project.run_project_sources``).
    """
    config = config or LintConfig()
    findings = lint_module(LintModule(path, source, config))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def _lint_file(
    path_str: str, config: LintConfig
) -> tuple[list[Finding], str | None]:
    """Read + lint one file; ``(findings, error or None)``."""
    try:
        source = Path(path_str).read_text(encoding="utf-8")
    except OSError as exc:
        return [], f"{path_str}: unreadable ({exc})"
    try:
        return run_source(source, path_str, config), None
    except SyntaxError as exc:
        return [], f"{path_str}: syntax error ({exc.msg})"


def run_paths(
    paths: Sequence[str | Path],
    config: LintConfig | None = None,
) -> tuple[list[Finding], list[str]]:
    """Lint files/directories.

    Returns ``(findings, errors)`` where ``errors`` are files that
    could not be read or parsed (reported, never silently skipped).
    The project-wide pass (rules R7-R11) runs after the per-file
    rules, over every file that parsed.
    """
    config = config or LintConfig()
    files = [str(p) for p in iter_python_files(paths)]
    findings: list[Finding] = []
    errors: list[str] = []
    for file_path in files:
        file_findings, error = _lint_file(file_path, config)
        findings.extend(file_findings)
        if error is not None:
            errors.append(error)
    findings.extend(_run_project_rules(files, config))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings, errors


def _run_project_rules(
    files: Sequence[str], config: LintConfig
) -> list[Finding]:
    """Run the registered project rules over the parseable files."""
    rules = selected_project_rules(config)
    if not rules:
        return []
    # imported here to avoid an import cycle (project imports engine)
    from repro.analysis.project import ProjectIndex

    index = ProjectIndex.from_files(files, config)
    findings: list[Finding] = []
    for rule in rules:
        for finding in rule.check_project(index):
            module = index.lint_module(finding.path)
            if module is None or not module.is_suppressed(finding):
                findings.append(finding)
    return findings


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def format_findings(
    findings: Iterable[Finding], output_format: str = "text"
) -> str:
    """Render findings as text lines or a JSON array."""
    items = list(findings)
    if output_format == "json":
        return json.dumps([f.as_dict() for f in items], indent=2)
    return "\n".join(f.format_text() for f in items)


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------
def finding_fingerprint(finding: Finding) -> tuple[str, str, str]:
    """Stable identity of a finding across unrelated edits.

    Line/column are excluded on purpose: they drift whenever code above
    the finding moves.  Identical triples are matched by multiplicity
    (a file with two baselined copies of the same message tolerates
    two, not unlimited).
    """
    return (finding.rule_id, Path(finding.path).as_posix(), finding.message)


def write_baseline(path: str | Path, findings: Sequence[Finding]) -> None:
    """Snapshot ``findings`` so a later run can report only new ones."""
    payload = {
        "version": 1,
        "findings": [
            {
                "rule_id": f.rule_id,
                "path": Path(f.path).as_posix(),
                "message": f.message,
            }
            for f in sorted(findings, key=finding_fingerprint)
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def load_baseline(path: str | Path) -> Counter[tuple[str, str, str]]:
    """Load fingerprint multiplicities from a baseline file.

    Raises ``ValueError`` on an unreadable or malformed file — a
    broken baseline must fail loudly, not silently un-suppress (or
    worse, suppress) everything.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"baseline {path}: {exc}") from exc
    if not isinstance(payload, dict) or "findings" not in payload:
        raise ValueError(f"baseline {path}: missing 'findings' key")
    counts: Counter[tuple[str, str, str]] = Counter()
    for item in payload["findings"]:
        try:
            counts[(item["rule_id"], item["path"], item["message"])] += 1
        except (TypeError, KeyError) as exc:
            raise ValueError(
                f"baseline {path}: malformed entry {item!r}"
            ) from exc
    return counts


def apply_baseline(
    findings: Sequence[Finding],
    baseline: Counter[tuple[str, str, str]],
) -> tuple[list[Finding], int]:
    """Split findings into (new, suppressed-count) against a baseline."""
    remaining = Counter(baseline)
    new: list[Finding] = []
    suppressed = 0
    for finding in findings:
        key = finding_fingerprint(finding)
        if remaining[key] > 0:
            remaining[key] -= 1
            suppressed += 1
        else:
            new.append(finding)
    return new, suppressed


def exit_code(findings: Sequence[Finding], errors: Sequence[str]) -> int:
    """0 clean / warnings only; 1 any error-severity finding; 2 broken input."""
    if errors:
        return 2
    if any(f.severity == "error" for f in findings):
        return 1
    return 0
