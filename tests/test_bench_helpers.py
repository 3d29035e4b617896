"""Tests for the CLI's table formatter and the benchmark arithmetic."""

import pytest

from repro.bench import gain_percent, speedup
from repro.cli import format_table


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["name", "value"],
                            [("alpha", 1.5), ("b", 22222.25)],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "alpha" in text
        assert "22,222.2" in text

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestMath:
    def test_gain_percent(self):
        assert gain_percent(100.0, 80.0) == pytest.approx(20.0)
        assert gain_percent(0.0, 5.0) == 0.0

    def test_speedup(self):
        assert speedup(10.0, 5.0) == pytest.approx(2.0)
        assert speedup(1.0, 0.0) == float("inf")
