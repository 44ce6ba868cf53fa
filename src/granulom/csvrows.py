"""The one layer that knows the package's text files, for reading and writing.

`write_lines` writes every text output: LF line ends, a final newline,
UTF-8, one write call. `read_csv_rows` reads every CSV and `read_text`
every other text input; a malformed file is a DataError naming the file
and the line.
"""

from __future__ import annotations

import re

from .errors import DataError, DatasetError, NonNumericValueError, RaggedRowError

# sample ids and class labels: CSV-safe and usable in file names
ID_RE = re.compile(r"^[A-Za-z0-9_-]+$")


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_text(path) -> str:
    """UTF-8 text of a file; a bad byte or a NUL is a DataError naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad, fault = exc.start, "not UTF-8 text"
    else:
        bad, fault = data.find(b"\0"), "NUL byte"
        if bad < 0:
            return text
    line = data.count(b"\n", 0, bad) + 1
    raise DataError(f"{path}: line {line}: {fault}")


def read_csv_rows(path, header: str, kinds: tuple, what: str, rest=None):
    """(header cells, row tuples) of a CSV; cell i of a row is converted by kinds[i].

    Blank lines are skipped. The header must equal `header`, or with `rest`
    begin with it, each further column converted by `rest`. A missing or
    wrong header is a DatasetError, a row wider or narrower than the header
    a RaggedRowError, a cell its kind rejects with ValueError a
    NonNumericValueError, and a DataError raised by a kind keeps its class
    and message; each names the file and the line.
    """
    lines = [(n, ln.strip()) for n, ln in enumerate(read_text(path).splitlines(), start=1)
             if ln.strip()]
    if not lines:
        raise DatasetError(f"{path}: empty file, expected a {what} CSV")
    lineno, first = lines[0]
    names, expected = first.split(","), header.split(",")
    if (names if rest is None else names[: len(expected)]) != expected:
        raise DatasetError(f"{path}: line {lineno}: not a {what} CSV header "
                           f"(expected {header}{'' if rest is None else ',...'})")
    kinds = tuple(kinds) + (rest,) * (len(names) - len(kinds))
    rows = []
    for lineno, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(names):
            raise RaggedRowError(f"{path}: line {lineno}: {len(cells)} cells, "
                                 f"expected {len(names)}")
        try:
            rows.append(tuple([kind(c) for kind, c in zip(kinds, cells)]))
        except DataError as exc:
            raise type(exc)(f"{path}: line {lineno}: {exc}") from None
        except ValueError as exc:
            raise NonNumericValueError(f"{path}: line {lineno}: non-numeric cell ({exc})") \
                from None
    return names, rows
