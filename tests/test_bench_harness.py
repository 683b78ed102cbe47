"""Tests for the bench-harness helpers."""

import pytest

from repro.bench.harness import Table


class TestTable:
    def test_render_contains_rows(self):
        t = Table("Paper Table X", ["a", "b"])
        t.add_row(1, "two")
        text = t.render()
        assert "Paper Table X" in text
        assert "two" in text

    def test_alignment(self):
        t = Table("T", ["col", "x"])
        t.add_row("longvalue", 1)
        lines = t.render().splitlines()
        assert lines[1].startswith("col")
        assert "longvalue" in lines[3]

    def test_rule_spans_widest_line(self):
        # A title longer than any row used to leave the rule undersized.
        t = Table("A very long descriptive table title indeed", ["a"])
        t.add_row("x")
        lines = t.render().splitlines()
        rule = lines[2]
        assert set(rule) == {"-"}
        assert len(rule) == max(len(line) for line in lines)

    def test_rule_spans_wide_rows(self):
        t = Table("T", ["a", "b"])
        t.add_row("a-much-wider-cell-than-the-header", "x")
        lines = t.render().splitlines()
        assert len(lines[2]) == max(len(line) for line in lines)

    def test_no_trailing_whitespace(self):
        t = Table("T", ["col", "other"])
        t.add_row("v", "w")
        for line in t.render().splitlines():
            assert line == line.rstrip()

    def test_rejects_wrong_arity(self):
        t = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)
