"""Markdown report generation for reproduction runs.

Bundles rendered experiment outputs into a single markdown document —
what a user attaches to an issue or a replication report.  Rendered
tables are fixed-width text, so they go into code fences verbatim.
"""

from __future__ import annotations

import platform
import sys
from pathlib import Path
from typing import Sequence, Tuple, Union


def write_markdown_report(
    sections: Sequence[Tuple[str, str]],
    path: Union[str, Path],
    scale: str = "default",
) -> Path:
    """Write ``(section name, rendered text)`` pairs to a markdown file."""
    lines = [
        "# Price $heriff reproduction report",
        "",
        f"- scale: `{scale}`",
        f"- python: `{sys.version.split()[0]}` on `{platform.platform()}`",
        f"- sections: {len(sections)}",
        "",
    ]
    for name, rendered in sections:
        lines.append(f"## {name}")
        lines.append("")
        lines.append("```text")
        lines.append(rendered.rstrip())
        lines.append("```")
        lines.append("")
    out = Path(path)
    out.write_text("\n".join(lines))
    return out
