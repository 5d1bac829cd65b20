"""Tests for result rendering."""

import pytest

from repro.reporting.render import ascii_table, sparkline


class TestAsciiTable:
    def test_alignment(self):
        text = ascii_table(["id", "n"], [[1, 10], [2, 300]])
        lines = text.splitlines()
        assert lines[0] == "id   n"
        assert lines[1] == "-- ---"
        assert lines[2] == " 1  10"
        assert lines[3] == " 2 300"

    def test_left_alignment(self):
        text = ascii_table(["name"], [["ab"], ["c"]], align_right=False)
        assert "ab" in text.splitlines()[2]

    def test_empty_rows(self):
        text = ascii_table(["a", "b"], [])
        assert len(text.splitlines()) == 2

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            ascii_table(["a", "b"], [[1]])

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError):
            ascii_table([], [])


class TestSparkline:
    def test_monotone(self):
        assert sparkline([0, 1, 2, 3]) == "▁▃▆█"

    def test_flat(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""
