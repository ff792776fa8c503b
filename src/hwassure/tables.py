"""Reading the CSV tables that the workbench takes as input."""

from __future__ import annotations

import csv
import io
from typing import Any, Callable, Dict, List, Mapping


def csv_rows(
    text: str, columns: Mapping[str, Callable[[str], Any]], table: str
) -> List[Dict[str, Any]]:
    """The rows of a CSV table, each a dict from header cell to that
    column's cell as ``columns[header cell]`` reads it.

    The header must list the keys of ``columns`` in order. A different
    header, a row with fewer or more cells than the header, or a cell that
    its reader rejects with ValueError raises ValueError; a row's error
    names its line, and a cell's error its column too. Blank lines are
    skipped.
    """
    header = list(columns)
    reader = csv.reader(io.StringIO(text))
    found = next(reader, None)
    if found != header:
        raise ValueError(f"bad {table} header {found}; expected {header}")
    rows = []
    for cells in reader:
        if not cells:
            continue
        if len(cells) != len(header):
            raise ValueError(
                f"{table} line {reader.line_num} has {len(cells)} cells, expected {len(header)}"
            )
        row = {}
        for (column, read), cell in zip(columns.items(), cells):
            try:
                row[column] = read(cell)
            except ValueError as exc:
                raise ValueError(
                    f"{table} line {reader.line_num}, column {column!r}: {exc}"
                ) from None
        rows.append(row)
    return rows
