"""Reading the CSV tables that the workbench takes as input."""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Sequence


def csv_rows(text: str, header: Sequence[str], table: str) -> List[Dict[str, str]]:
    """The rows of a CSV table, each a dict keyed by the ``header`` cells.

    A different header, or a row with fewer or more cells than the header,
    raises ValueError; a row's error names its line. Blank lines are skipped.
    """
    reader = csv.reader(io.StringIO(text))
    found = next(reader, None)
    if found != list(header):
        raise ValueError(f"bad {table} header {found}; expected {list(header)}")
    rows = []
    for cells in reader:
        if not cells:
            continue
        if len(cells) != len(header):
            raise ValueError(
                f"{table} line {reader.line_num} has {len(cells)} cells, expected {len(header)}"
            )
        rows.append(dict(zip(header, cells)))
    return rows
