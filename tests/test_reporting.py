"""Tests for result rendering and CSV export."""

import pytest

from repro.reporting import (
    ascii_chart,
    ascii_table,
    series_to_csv,
    sparkline,
    table_to_csv,
)


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


class TestAsciiChart:
    def test_renders_extremes(self):
        text = ascii_chart([0, 1, 2], [10, 20, 30], height=4, width=10)
        assert "30" in text and "10" in text
        assert text.count("*") == 3

    def test_label(self):
        text = ascii_chart([0, 1], [0, 1], label="demo")
        assert text.splitlines()[0] == "demo"

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_chart([0], [0, 1])
        with pytest.raises(ValueError):
            ascii_chart([0], [0], height=1)

    def test_empty(self):
        assert "empty" in ascii_chart([], [])


class TestCsv:
    def test_series(self, tmp_path):
        path = tmp_path / "series.csv"
        text = series_to_csv({"t": [0, 1], "v": [2.5, 3.5]}, path)
        assert text == "t,v\n0,2.5\n1,3.5\n"
        assert path.read_text() == text

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            series_to_csv({"a": [1], "b": [1, 2]})

    def test_series_empty(self):
        with pytest.raises(ValueError):
            series_to_csv({})

    def test_table(self, tmp_path):
        path = tmp_path / "table.csv"
        text = table_to_csv(["a", "b"], [[1, "x"]], path)
        assert text == "a,b\n1,x\n"
        assert path.read_text() == text
