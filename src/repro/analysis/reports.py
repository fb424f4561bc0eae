"""Rendering helpers for the benchmark harnesses' tables and series."""

from __future__ import annotations

from typing import Any, Optional, Sequence


def format_table(
    rows: Sequence[Sequence[Any]],
    headers: Sequence[str],
    title: Optional[str] = None,
) -> str:
    """Fixed-width table from row tuples (numbers get 2-decimal form)."""

    def cell(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:,.2f}"
        return str(value)

    rendered = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(value))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(f"{h:<{w}}" for h, w in zip(headers, widths)))
    lines.append("-" * len(lines[-1]))
    for row in rendered:
        lines.append("  ".join(f"{v:<{w}}" for v, w in zip(row, widths)))
    return "\n".join(lines)
