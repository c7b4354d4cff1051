"""Tests for the report formatting helpers."""

import pytest

from repro.evaluation.report import banner, format_series, format_table


class TestFormatTable:
    def test_basic_alignment(self):
        out = format_table(
            ["Method", "R (ms)"],
            [["Agenda", 55.08], ["Quota", 7.47]],
        )
        lines = out.splitlines()
        assert lines[0].startswith("Method")
        assert "55.08" in out
        assert "7.47" in out
        # header separator present
        assert set(lines[1].replace(" ", "")) == {"-"}

    def test_title(self):
        out = format_table(["A"], [["x"]], title="Table VIII")
        assert out.splitlines()[0] == "Table VIII"
        assert out.splitlines()[1] == "=" * len("Table VIII")

    def test_float_format(self):
        out = format_table(["A"], [[0.123456]], float_format="{:.4f}")
        assert "0.1235" in out

    def test_mismatched_row_raises(self):
        with pytest.raises(ValueError):
            format_table(["A", "B"], [["only one"]])

    def test_non_float_cells_stringified(self):
        out = format_table(["A", "B"], [[1, None]])
        assert "None" in out


class TestFormatSeries:
    def test_one_row_per_x(self):
        out = format_series(
            "ratio",
            ["1/8", "1/4"],
            {"Agenda": [90.4, 80.1], "Quota": [78.8, 70.0]},
        )
        lines = out.splitlines()
        assert len(lines) == 4  # header + separator + 2 rows
        assert "Agenda" in lines[0]
        assert "90.400" in out

    def test_series_lengths_must_match_x(self):
        with pytest.raises(IndexError):
            format_series("x", [1, 2, 3], {"s": [1.0]})


def test_banner_contains_text():
    out = banner("Figure 3")
    assert "Figure 3" in out
    assert out.count("#") > 10
