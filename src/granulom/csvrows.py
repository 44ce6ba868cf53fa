"""The one layer that knows the package's text files, for reading and writing.

`write_lines` writes every text output: LF line ends, a final newline,
UTF-8, one write call. `read_csv_rows` reads every CSV and `read_text`
every other text input; a malformed file is a DataError naming the file
and the line. `identifier` checks every sample id and class label, as a
CSV cell converter or on its own. `parse_config` parses both INI configs
(corpus and pipeline) and `setting` reads each of their values; a
malformed or unknown value is a one-line DataError naming the section
and the key. `checked` runs a range check on values already read and
gives its DataError the same prefix.
"""

from __future__ import annotations

import configparser
import math
import os
import re

from .errors import DataError

_ID_RE = re.compile(r"[A-Za-z0-9_-]+")


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


def identifier(cell: str, what: str = "sample id or label") -> str:
    """`cell` if it is one or more of [A-Za-z0-9_-], else a DataError.

    Every sample id and class label obeys this rule, on read and on write:
    it keeps them CSV-safe and usable in file names.
    """
    if not _ID_RE.fullmatch(cell):
        raise DataError(f"{what} {cell!r} outside [A-Za-z0-9_-]")
    return cell


def read_csv_rows(path, header: str, kinds: tuple, what: str, rest=None):
    """(header cells, row tuples) of a CSV; cell i of a row is converted by kinds[i].

    Blank lines are skipped. The header must equal `header`, or with `rest`
    begin with it, each further column converted by `rest`. A missing or
    wrong header, a row wider or narrower than the header, and a cell its
    kind rejects are each a DataError naming the file and the line; a kind's
    own DataError keeps its message, any other ValueError is a non-numeric
    cell.
    """
    lines = [(n, ln.strip()) for n, ln in enumerate(read_text(path).splitlines(), start=1)
             if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty file, expected a {what} CSV")
    lineno, first = lines[0]
    names, expected = first.split(","), header.split(",")
    if (names if rest is None else names[: len(expected)]) != expected:
        raise DataError(f"{path}: line {lineno}: not a {what} CSV header "
                        f"(expected {header}{'' if rest is None else ',...'})")
    kinds = tuple(kinds) + (rest,) * (len(names) - len(kinds))
    rows = []
    for lineno, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(names):
            raise DataError(f"{path}: line {lineno}: {len(cells)} cells, expected {len(names)}")
        try:
            rows.append(tuple([kind(c) for kind, c in zip(kinds, cells)]))
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: non-numeric cell ({exc})") from None
    return names, rows


# --- INI configs ----------------------------------------------------------------

def parse_config(text: str, what: str, source="<string>") -> configparser.ConfigParser:
    """The `what` ("corpus" or "pipeline") config in `text`; a parse error names `source`.

    '%' is literal, ';' and '#' start inline comments, keys are case-sensitive,
    and the default section "\n" cannot be named, so every section is ordinary.
    """
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"),
                                   default_section="\n")
    cp.optionxform = str
    cp.what, cp.read_keys = what, set()
    try:
        cp.read_string(text, source=os.fspath(source))
    except configparser.Error as exc:
        raise DataError(f"{what} config: {' '.join(str(exc).split())}") from None
    return cp


def config_error(cp, section: str, key: str | None, reason: str) -> DataError:
    """A DataError naming the config, the section and the key with its value."""
    text = None if key is None else cp.get(section, key, fallback=None)
    shown = "" if key is None else f" {key} (not set)" if text is None else f" {key} = {text!r}"
    return DataError(f"{cp.what} config [{section}]{shown}: {reason}")


def checked(cp, section: str, key: str | None, rule, *args, **kwargs):
    """rule(*args, **kwargs), its DataError naming the config's section and key."""
    try:
        return rule(*args, **kwargs)
    except DataError as exc:
        raise config_error(cp, section, key, str(exc)) from None


# kind -> (converter of one word, test of its value, what it expects); a plural
# kind ("counts", "numbers") is words separated by spaces, "2 counts" exactly two
_KINDS = {"text": (str, lambda value: True, "text"),
          "boolean": (lambda word: configparser.ConfigParser.BOOLEAN_STATES[word.lower()],
                      lambda value: True, "a boolean"),
          "count": (int, lambda value: value >= 0, "a non-negative integer"),
          "number": (float, math.isfinite, "a finite number")}
_REQUIRED = object()


def setting(cp, section: str, key: str, kind: str, default=_REQUIRED):
    """The value of `key` in `section` as `kind`, or `default` if the key is not set.

    A bad value, or a missing key without a default, is a DataError naming
    the section and the key.
    """
    cp.read_keys.add((section, key))
    size, _, name = kind.rpartition(" ")
    plural = name not in _KINDS
    convert, ok, expected = _KINDS[name[:-1] if plural else name]
    if plural:
        expected = f"{size or 'zero or more'} words separated by spaces, each {expected}"
    text = cp.get(section, key, fallback=None)
    if text is None and default is not _REQUIRED:
        return default
    try:
        if text is not None:
            values = tuple(map(convert, text.split() if plural else [text]))
            if all(map(ok, values)) and len(values) == int(size or len(values)):
                return values if plural else values[0]
    except (KeyError, ValueError):
        pass
    raise config_error(cp, section, key, f"expected {expected}")


def reject_unread(cp) -> None:
    """A DataError for the first section, then key, that no `setting` call read."""
    for section in cp.sections():
        if not any(read == section for read, _ in cp.read_keys):
            raise config_error(cp, section, None, "unknown section")
        for key in cp[section]:
            if (section, key) not in cp.read_keys:
                raise config_error(cp, section, key, "unknown key")
