"""Tests for the reprolint runner: registry, runner, reporting, CLI."""

import json
import re
from pathlib import Path

import pytest

import repro.analysis.rules as rules_module
from repro.analysis.__main__ import main
from repro.analysis.engine import exit_code, run_paths, run_sources
from repro.analysis.rules import RULES, Finding, Rule

# an R5 violation usable anywhere (R5 is unscoped)
R5_SNIPPET = 'def f(metrics):\n    metrics.counter("no.such.metric").inc()\n'

MATCHER = (
    Path(__file__).resolve().parents[2]
    / ".github"
    / "reprolint-problem-matcher.json"
)


class TestRegistry:
    def test_all_five_rules_registered(self):
        assert [rule.rule_id for rule in RULES] == [
            "R5", "R7", "R9", "R10", "R11",
        ]

    def test_all_four_project_rules_registered(self):
        # the lock and view rules, like every rule, are one Rule family
        # run over the project index
        ids = {rule.rule_id for rule in RULES}
        assert {"R7", "R9", "R10", "R11"} <= ids
        assert all(isinstance(rule, Rule) for rule in RULES)

    def test_duplicate_id_rejected(self):
        ids = [rule.rule_id for rule in RULES]
        assert len(ids) == len(set(ids))

    def test_every_rule_documents_itself(self):
        # rule docstrings are the rationale; the module table lists ids
        for rule in RULES:
            assert rule.rule_id
            assert type(rule).__doc__
            assert f"\n{rule.rule_id} " in rules_module.__doc__


class TestRunnerAndReporting:
    def test_run_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text(R5_SNIPPET)
        findings, errors = run_paths([tmp_path])
        assert errors == []
        assert [f.rule_id for f in findings] == ["R5"]

    def test_run_paths_reports_syntax_errors(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        findings, errors = run_paths([tmp_path])
        assert findings == []
        assert len(errors) == 1
        assert "syntax error" in errors[0]
        assert exit_code(findings, errors) == 2

    def test_exit_codes(self):
        finding = Finding("R5", "p.py", 1, 0, "m")
        assert exit_code([], []) == 0
        assert exit_code([finding], []) == 1
        assert exit_code([], ["p.py: unreadable"]) == 2
        assert exit_code([finding], ["p.py: unreadable"]) == 2

    def test_text_format_is_location_prefixed(self):
        (finding,) = run_sources({"fixture.py": R5_SNIPPET})
        text = finding.format_text()
        assert text.startswith("fixture.py:2:")
        assert " R5 " in text

    def test_findings_sorted_by_location(self):
        findings = run_sources(
            {"b.py": R5_SNIPPET, "a.py": "\n\n" + R5_SNIPPET}
        )
        keys = [(f.path, f.line) for f in findings]
        assert keys == [("a.py", 4), ("b.py", 2)]


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0

    def test_violation_exits_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(R5_SNIPPET)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr()
        assert "R5" in out.out

    def test_unknown_rule_id_exits_two(self, tmp_path, capsys):
        # there is no rule selection: any flag but paths is a usage error
        (tmp_path / "ok.py").write_text("x = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["--select", "R42", str(tmp_path)])
        assert exc.value.code == 2

    def test_problem_matcher_reads_the_text_output(self, tmp_path, capsys):
        # CI turns findings into PR annotations with this regexp; it
        # must parse exactly what the CLI prints
        (tmp_path / "bad.py").write_text(R5_SNIPPET)
        assert main([str(tmp_path)]) == 1
        line = capsys.readouterr().out.splitlines()[0]
        (pattern,) = json.loads(MATCHER.read_text())["problemMatcher"][0][
            "pattern"
        ]
        match = re.match(pattern["regexp"], line)
        assert match is not None, line
        (finding,) = run_sources({str(tmp_path / "bad.py"): R5_SNIPPET})
        assert line == finding.format_text()
        assert match.group(pattern["file"]) == finding.path
        assert int(match.group(pattern["line"])) == finding.line
        assert int(match.group(pattern["column"])) == finding.col + 1
        assert match.group(pattern["code"]) == "R5"
        assert match.group(pattern["message"]) == finding.message
