"""Plain-text table rendering for benchmark and CLI output."""

from __future__ import annotations

from collections.abc import Sequence


def _cell(value: object, width: int) -> str:
    if value is None:
        text = "OOM"
    elif isinstance(value, float):
        text = f"{value:.2f}"
    else:
        text = str(value)
    return text.rjust(width)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width ASCII table; floats at two decimals, None → "OOM"."""
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("all rows must have one cell per header")
    rendered = [
        [_cell(value, 0).strip() for value in row] for row in rows
    ]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rendered)) if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)

