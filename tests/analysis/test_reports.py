"""Tests for report rendering helpers."""

from repro.analysis.reports import format_table


def test_format_table_basic():
    out = format_table(
        [("a.com", 10, 1.5), ("b.com", 3, 0.25)],
        headers=("Domain", "Requests", "Spread"),
        title="Demo",
    )
    lines = out.splitlines()
    assert lines[0] == "Demo"
    assert "Domain" in lines[1]
    assert "a.com" in lines[3]
    assert "1.50" in lines[3]  # floats get two decimals


def test_format_table_width_alignment():
    out = format_table([("x", 1)], headers=("A", "B"))
    header, sep, row = out.splitlines()
    assert len(sep) == len(header)
