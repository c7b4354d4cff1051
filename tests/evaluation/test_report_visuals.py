"""Tests for the sparkline and ASCII-histogram report helpers."""

import pytest

from repro.evaluation.report import ascii_histogram, sparkline


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_extremes_mapped_to_extreme_blocks(self):
        line = sparkline([0.0, 10.0])
        assert line[0] == " "
        assert line[-1] == "█"

    def test_constant_series(self):
        line = sparkline([5.0, 5.0, 5.0])
        assert len(set(line)) == 1

    def test_empty(self):
        assert sparkline([]) == ""

    def test_monotone_series_monotone_blocks(self):
        line = sparkline([1, 2, 3, 4, 5])
        blocks = " ▁▂▃▄▅▆▇█"
        levels = [blocks.index(c) for c in line]
        assert levels == sorted(levels)


class TestAsciiHistogram:
    def test_counts_sum_to_input(self):
        out = ascii_histogram([1, 1, 2, 3, 3, 3, 9], bins=4)
        counts = [int(line.rsplit(" ", 1)[1]) for line in out.splitlines()]
        assert sum(counts) == 7

    def test_bin_count(self):
        out = ascii_histogram(list(range(100)), bins=5)
        assert len(out.splitlines()) == 5

    def test_peak_bin_has_longest_bar(self):
        out = ascii_histogram([1] * 10 + [5], bins=2, width=20)
        lines = out.splitlines()
        assert lines[0].count("#") > lines[1].count("#")

    def test_empty(self):
        assert ascii_histogram([]) == "(no data)"

    def test_constant_values(self):
        out = ascii_histogram([2.0, 2.0], width=10)
        assert "#" * 10 in out
        assert "(2)" in out

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ascii_histogram([1, 2], bins=0)
        with pytest.raises(ValueError):
            ascii_histogram([1, 2], width=0)

    def test_zero_count_bin_has_no_bar(self):
        out = ascii_histogram([0.0, 0.0, 10.0], bins=5, width=10)
        middle_lines = out.splitlines()[1:-1]
        assert any("|  " in line or line.rstrip().endswith("0")
                   for line in middle_lines)
