"""Rendering: ASCII tables, text 'figures', CSV export.

The CLI artifacts print the same rows and series the paper's tables
and figures report; these helpers keep the formatting consistent and
make the output easy to diff against EXPERIMENTS.md.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from repro.experiments.stats import FiveNumber

Cell = Union[str, float, int, None]

_KB = 1024
_MB = 1024 * 1024


def format_bytes(size: int) -> str:
    """'8 KB', '512 KB', '4 MB', matching the paper's size labels."""
    if size >= _MB and size % _MB == 0:
        return f"{size // _MB} MB"
    if size >= _KB and size % _KB == 0:
        return f"{size // _KB} KB"
    return f"{size} B"


def format_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:.3f}s"


def format_ms(value: Optional[float]) -> str:
    """Seconds -> milliseconds text."""
    if value is None:
        return "-"
    return f"{value * 1000:.1f}"


def format_pct(value: Optional[float], digits: int = 2) -> str:
    """Fraction -> percent text; '~' for negligible, as the tables do."""
    if value is None:
        return "-"
    if 0 < value < 0.0003:
        return "~"
    return f"{value * 100:.{digits}f}"


def format_mean_stderr(mean: float, stderr: float, scale: float = 1.0,
                       digits: int = 2) -> str:
    """'126.01 +- 5.37' in the tables' mean +- standard-error style."""
    return f"{mean * scale:.{digits}f}+-{stderr * scale:.{digits}f}"


def format_five_number(summary: FiveNumber, scale: float = 1.0,
                       digits: int = 3) -> str:
    """Box plot as text: min [q1 | median | q3] max."""
    values = [value * scale for value in summary.as_tuple()]
    return (f"{values[0]:.{digits}f} [{values[1]:.{digits}f} | "
            f"{values[2]:.{digits}f} | {values[3]:.{digits}f}] "
            f"{values[4]:.{digits}f}")


def _cell_text(cell: Cell) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def render_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]],
                 title: Optional[str] = None) -> str:
    """A fixed-width ASCII table."""
    text_rows = [[_cell_text(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(header.ljust(width)
                            for header, width in zip(headers, widths)))
    lines.append(separator)
    for row in text_rows:
        lines.append(" | ".join(cell.ljust(width)
                                for cell, width in zip(row, widths)))
    return "\n".join(lines)


def write_csv(path: Union[str, Path], headers: Sequence[str],
              rows: Iterable[Sequence[Cell]]) -> None:
    """Export rows (the same ones the tables render) as CSV."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(["" if cell is None else cell for cell in row])


def csv_text(headers: Sequence[str], rows: Iterable[Sequence[Cell]]) -> str:
    """CSV as a string (for stdout piping)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    for row in rows:
        writer.writerow(["" if cell is None else cell for cell in row])
    return buffer.getvalue()
