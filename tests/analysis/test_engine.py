"""Tests for the reprolint engine: suppressions, runner, reporting, CLI."""

import json
import textwrap

import pytest

import repro.analysis  # noqa: F401  (registers both rule packs)
from repro.analysis import (
    PROJECT_RULES,
    RULES,
    Finding,
    LintConfig,
    Rule,
    apply_baseline,
    exit_code,
    format_findings,
    known_rule_ids,
    load_baseline,
    register,
    run_paths,
    run_source,
    write_baseline,
)
from repro.analysis.__main__ import main

UNSCOPED = LintConfig(restrict_scopes=False)

# an R1 violation usable anywhere (R1 is unscoped by design)
R1_SNIPPET = "import numpy as np\nx = np.random.choice([1, 2])\n"


def lint(source, config=UNSCOPED, path="fixture.py"):
    return run_source(textwrap.dedent(source), path, config)


class TestRegistry:
    def test_all_six_rules_registered(self):
        assert set(RULES) == {"R1", "R2", "R3", "R4", "R5", "R6"}

    def test_all_five_project_rules_registered(self):
        assert set(PROJECT_RULES) == {"R7", "R8", "R9", "R10", "R11"}

    def test_known_ids_span_both_families_plus_hygiene(self):
        assert known_rule_ids() == (
            frozenset(RULES) | frozenset(PROJECT_RULES) | {"R0"}
        )

    def test_project_rule_ids_collide_with_file_rule_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            from repro.analysis import register_project
            from repro.analysis.engine import ProjectRule

            @register_project
            class DupAcrossFamilies(ProjectRule):
                rule_id = "R1"
                name = "dup"

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):

            @register
            class Dup(Rule):
                rule_id = "R1"
                name = "dup"

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):

            @register
            class BadSeverity(Rule):
                rule_id = "R99"
                name = "bad"
                severity = "fatal"

    def test_every_rule_documents_itself(self):
        for cls in RULES.values():
            assert cls.name
            assert cls.rationale


class TestSuppressions:
    def test_line_disable_suppresses(self):
        src = (
            "import numpy as np\n"
            "x = np.random.choice([1, 2])  # reprolint: disable=R1\n"
        )
        assert lint(src) == []

    def test_line_disable_other_rule_does_not_suppress(self):
        src = (
            "import numpy as np\n"
            "x = np.random.choice([1, 2])  # reprolint: disable=R2\n"
        )
        assert [f.rule_id for f in lint(src)] == ["R1"]

    def test_line_disable_multiple_ids(self):
        src = (
            "import numpy as np\n"
            "x = np.random.choice([1, 2])  # reprolint: disable=R2, R1\n"
        )
        assert lint(src) == []

    def test_file_disable_suppresses_everywhere(self):
        src = (
            "# reprolint: disable-file=R1\n"
            "import numpy as np\n"
            "x = np.random.choice([1, 2])\n"
            "y = np.random.random()\n"
        )
        assert lint(src) == []

    def test_disable_on_unrelated_line_does_not_suppress(self):
        src = (
            "import numpy as np\n"
            "# reprolint: disable=R1\n"
            "x = np.random.choice([1, 2])\n"
        )
        assert [f.rule_id for f in lint(src)] == ["R1"]

    def test_justification_text_shares_the_comment(self):
        src = (
            "import numpy as np\n"
            "x = np.random.choice([1])"
            "  # reprolint: disable=R1  seeded upstream, see docs\n"
        )
        assert lint(src) == []

    def test_file_disable_mixed_with_line_disable(self):
        # disable-file covers R1 everywhere; the R4 violation needs
        # its own line-level disable and gets one — file-level and
        # line-level tables must compose, not shadow each other
        src = (
            "# reprolint: disable-file=R1\n"
            "import numpy as np\n"
            "x = np.random.choice([1, 2])\n"
            "y = np.random.random()\n"
            "def f(acc=[]):  # reprolint: disable=R4  fixture only\n"
            "    return acc\n"
            "def g(acc=[]):\n"
            "    return acc\n"
        )
        findings = lint(src)
        assert [(f.rule_id, f.line) for f in findings] == [("R4", 7)]

    def test_unknown_rule_id_warns_instead_of_silently_passing(self):
        src = (
            "import numpy as np\n"
            "x = np.random.choice([1, 2])  # reprolint: disable=R42\n"
        )
        findings = lint(src)
        ids = [(f.rule_id, f.severity) for f in findings]
        assert ("R1", "error") in ids  # R42 suppressed nothing
        assert ("R0", "warning") in ids  # and the typo is surfaced
        r0 = next(f for f in findings if f.rule_id == "R0")
        assert "R42" in r0.message and "unknown" in r0.message
        assert r0.line == 2

    def test_unknown_id_mixed_with_known_still_suppresses_known(self):
        src = (
            "import numpy as np\n"
            "x = np.random.choice([1, 2])  # reprolint: disable=R1,R42\n"
        )
        findings = lint(src)
        assert [f.rule_id for f in findings] == ["R0"]

    def test_unknown_id_warning_keeps_exit_code_zero(self):
        src = "x = 1  # reprolint: disable=R42\n"
        findings = lint(src)
        assert [f.rule_id for f in findings] == ["R0"]
        assert exit_code(findings, []) == 0

    def test_hygiene_warning_is_itself_suppressible(self):
        src = "x = 1  # reprolint: disable=R0,R42  historical id\n"
        assert lint(src) == []

    def test_project_rule_ids_are_known_to_hygiene(self):
        src = "x = 1  # reprolint: disable=R7,R10\n"
        assert lint(src) == []


class TestBaseline:
    def test_round_trip_suppresses_known_findings(self, tmp_path):
        findings = lint(R1_SNIPPET)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, findings)
        new, suppressed = apply_baseline(
            findings, load_baseline(baseline_file)
        )
        assert new == [] and suppressed == len(findings)

    def test_new_findings_survive_baseline(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, lint(R1_SNIPPET))
        extended = R1_SNIPPET + "def f(acc=[]):\n    return acc\n"
        new, suppressed = apply_baseline(
            lint(extended), load_baseline(baseline_file)
        )
        assert suppressed == 1
        assert [f.rule_id for f in new] == ["R4"]

    def test_line_drift_does_not_invalidate_baseline(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, lint(R1_SNIPPET))
        shifted = "# a new comment shifts every line\n" + R1_SNIPPET
        new, suppressed = apply_baseline(
            lint(shifted), load_baseline(baseline_file)
        )
        assert new == [] and suppressed == 1

    def test_multiplicity_is_respected(self, tmp_path):
        # two identical findings baselined tolerate two, not three
        f = Finding("R1", "error", "p.py", 1, 0, "same message")
        g = Finding("R1", "error", "p.py", 9, 0, "same message")
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, [f, g])
        third = Finding("R1", "error", "p.py", 20, 0, "same message")
        new, suppressed = apply_baseline(
            [f, g, third], load_baseline(baseline_file)
        )
        assert suppressed == 2
        assert new == [third]

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="baseline"):
            load_baseline(bad)
        missing_key = tmp_path / "missing.json"
        missing_key.write_text("{}", encoding="utf-8")
        with pytest.raises(ValueError, match="findings"):
            load_baseline(missing_key)
        with pytest.raises(ValueError):
            load_baseline(tmp_path / "absent.json")


class TestSelection:
    def test_select_limits_rules(self):
        src = R1_SNIPPET + "def f(acc=[]):\n    return acc\n"
        only_r4 = LintConfig(
            select=frozenset({"R4"}), restrict_scopes=False
        )
        assert {f.rule_id for f in lint(src, only_r4)} == {"R4"}

    def test_ignore_drops_rules(self):
        src = R1_SNIPPET + "def f(acc=[]):\n    return acc\n"
        no_r4 = LintConfig(ignore=frozenset({"R4"}), restrict_scopes=False)
        assert {f.rule_id for f in lint(src, no_r4)} == {"R1"}


class TestRunnerAndReporting:
    def test_run_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text(R1_SNIPPET)
        findings, errors = run_paths([tmp_path], UNSCOPED)
        assert errors == []
        assert [f.rule_id for f in findings] == ["R1"]

    def test_run_paths_reports_syntax_errors(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        findings, errors = run_paths([tmp_path], UNSCOPED)
        assert findings == []
        assert len(errors) == 1
        assert "syntax error" in errors[0]
        assert exit_code(findings, errors) == 2

    def test_exit_codes(self):
        clean: list[Finding] = []
        err = Finding("R1", "error", "p.py", 1, 0, "m")
        warn = Finding("R1", "warning", "p.py", 1, 0, "m")
        assert exit_code(clean, []) == 0
        assert exit_code([warn], []) == 0
        assert exit_code([err], []) == 1
        assert exit_code(clean, ["p.py: unreadable"]) == 2

    def test_json_format_round_trips(self):
        findings = lint(R1_SNIPPET)
        payload = json.loads(format_findings(findings, "json"))
        assert payload[0]["rule_id"] == "R1"
        assert payload[0]["line"] == 2

    def test_text_format_is_location_prefixed(self):
        text = format_findings(lint(R1_SNIPPET), "text")
        assert text.startswith("fixture.py:2:")
        assert "R1" in text

    def test_findings_sorted_by_location(self):
        src = (
            "import numpy as np\n"
            "b = np.random.random()\n"
            "a = np.random.choice([1])\n"
        )
        lines = [f.line for f in lint(src)]
        assert lines == sorted(lines)


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0

    def test_violation_exits_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(R1_SNIPPET)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr()
        assert "R1" in out.out

    def test_json_output(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(R1_SNIPPET)
        assert main(["--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule_id"] == "R1"

    def test_unknown_rule_id_exits_two(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["--select", "R42", str(tmp_path)]) == 2

    def test_list_rules_covers_both_families(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for n in range(1, 12):
            assert f"R{n}" in out
        assert "per-file" in out and "project" in out

    def test_write_baseline_then_lint_against_it(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(R1_SNIPPET)
        baseline = tmp_path / "baseline.json"
        assert main(
            ["--write-baseline", str(baseline), str(tmp_path / "bad.py")]
        ) == 0
        assert baseline.exists()
        capsys.readouterr()  # drop the write-baseline notice
        # baselined finding no longer fails the run...
        assert main(
            ["--baseline", str(baseline), str(tmp_path / "bad.py")]
        ) == 0
        assert "baselined" in capsys.readouterr().err
        # ...but a fresh violation still does
        (tmp_path / "bad.py").write_text(
            R1_SNIPPET + "def f(acc=[]):\n    return acc\n"
        )
        assert main(
            ["--baseline", str(baseline), str(tmp_path / "bad.py")]
        ) == 1
        out = capsys.readouterr().out
        assert "R4" in out and "R1" not in out.replace("R1_", "")

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--baseline", str(bad), str(tmp_path)]) == 2
