"""Plain-text and CSV reporting helpers.

Experiments print their results as aligned text tables (one per paper
figure) and can also emit CSV for external plotting.  No plotting library is
used — the shape tests compare *numbers and orderings*, not pixels.
"""

from __future__ import annotations

import io
from collections.abc import Mapping, Sequence

__all__ = ["format_table", "to_csv", "format_mapping"]


def _format_cell(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 3,
    title: str | None = None,
) -> str:
    """Render rows as an aligned monospace table.

    Parameters
    ----------
    headers:
        Column names.
    rows:
        Row values; floats are formatted with ``precision`` decimals.
    precision:
        Decimal places for float cells.
    title:
        Optional title printed above the table.
    """
    formatted_rows = [
        [_format_cell(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(str(h)) for h in headers]
    for row in formatted_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row([str(h) for h in headers]))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in formatted_rows)
    return "\n".join(lines)


def to_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render rows as CSV text (no external dependencies)."""
    buffer = io.StringIO()
    buffer.write(",".join(str(h) for h in headers) + "\n")
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        buffer.write(",".join(_format_cell(cell, 6) for cell in row) + "\n")
    return buffer.getvalue()


def format_mapping(mapping: Mapping[str, object], precision: int = 3) -> str:
    """Render a flat mapping as ``key: value`` lines (for run summaries)."""
    lines = []
    for key, value in mapping.items():
        lines.append(f"{key}: {_format_cell(value, precision)}")
    return "\n".join(lines)
