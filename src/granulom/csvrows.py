"""Strict reader for the small exported CSV files (curves, diagrams, scatters)."""

from __future__ import annotations

from .errors import DataError


def read_csv_rows(path, header: str, kinds: tuple, what: str) -> list[tuple]:
    """Rows under `header`, cell i converted by kinds[i]; blank lines are skipped.

    A row with the wrong number of cells, or a cell its kind rejects, is a
    DataError naming the file and the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines or lines[0][1] != header:
        raise DataError(f"not a {what} CSV")
    rows = []
    for lineno, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(kinds):
            raise DataError(f"{path}: line {lineno}: {len(cells)} cells, "
                            f"expected {len(kinds)} ({header})")
        try:
            rows.append(tuple(kind(c) for kind, c in zip(kinds, cells)))
        except ValueError:
            raise DataError(f"{path}: line {lineno}: non-numeric cell in {ln!r}") from None
    return rows
