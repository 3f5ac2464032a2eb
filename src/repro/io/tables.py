"""Plain-text table formatting for benchmark output.

The benchmark harness prints the same rows/series the paper's figures
plot; this helper keeps that output aligned and diff-friendly.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_format: str = "{:.4g}",
) -> str:
    """Render rows as an aligned monospace table.

    Floats go through ``float_format``; everything else through str().
    """
    rendered: list[list[str]] = [[str(h) for h in headers]]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    if any(len(r) != len(rendered[0]) for r in rendered):
        raise ValueError("ragged table rows")

    widths = [max(len(r[c]) for r in rendered) for c in range(len(rendered[0]))]
    lines = []
    for i, row in enumerate(rendered):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def markdown_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render rows as a GitHub-flavoured markdown table (floats as
    ``.4g``, everything else through str())."""
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        cells = [f"{c:.4g}" if isinstance(c, float) else str(c) for c in row]
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)


_SHARE_SPARK = "▁▂▃▄▅▆▇█"


def share_bar(share: float, width: int = 8) -> str:
    """Tiny bar of a [0, 1] share (one glyph per 1/width of the range)."""
    share = min(max(share, 0.0), 1.0)
    full = int(share * width)
    partial = share * width - full
    bar = "█" * full
    if partial > 0 and full < width:
        bar += _SHARE_SPARK[min(int(partial * len(_SHARE_SPARK)), 7)]
    return bar or "▁"
