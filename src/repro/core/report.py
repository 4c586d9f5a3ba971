"""Plain-text rendering helpers for tables and ASCII bar "figures".

The benchmark harness and the CLI use these to print the reproduced
Tables 2-5 and the per-kernel / per-model / per-language averages behind
Figures 2-6 in a terminal-friendly form, side by side with the published
values.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["format_table", "format_bar_chart", "format_score", "side_by_side"]


def format_score(value: float) -> str:
    """Render a rubric score compactly (0, 0.25, 0.5, 0.75, 1)."""
    if abs(value - round(value)) < 1e-9:
        return f"{value:.0f}"
    return f"{value:.2f}".rstrip("0")


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render a list of rows as an aligned text table."""
    materialised = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


#: Characters of a full-score bar; a bar's length is its score clipped to
#: [0, 1] times this.
_BAR_WIDTH = 40


def format_bar_chart(values: Mapping[str, float], *, title: str | None = None) -> str:
    """Render a horizontal ASCII bar chart (the textual stand-in for a figure)."""
    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    if not values:
        return "\n".join(lines + ["(no data)"])
    label_width = max(len(str(k)) for k in values)
    for label, value in values.items():
        clipped = max(0.0, min(1.0, float(value)))
        bar = "#" * int(round(_BAR_WIDTH * clipped))
        lines.append(f"{str(label).ljust(label_width)}  {format_score(value):>5}  {bar}")
    return "\n".join(lines)


def side_by_side(left: str, right: str) -> str:
    """Place two text blocks next to each other, four spaces apart (used for
    paper-vs-repro views)."""
    left_lines = left.splitlines()
    right_lines = right.splitlines()
    height = max(len(left_lines), len(right_lines))
    left_lines += [""] * (height - len(left_lines))
    right_lines += [""] * (height - len(right_lines))
    left_width = max((len(line) for line in left_lines), default=0)
    return "\n".join(
        f"{l.ljust(left_width)}    {r}" for l, r in zip(left_lines, right_lines)
    )
