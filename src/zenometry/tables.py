"""The CSV table format of every file zenometry reads or writes.

A table is optional ``# key=value`` comment rows, one exact header row, and
one comma-separated row per record.  The writer takes Python cells only:
floats are written with ``repr`` (the shortest form that round-trips),
integers in decimal, booleans as ``true``/``false``, strings as they are and
``None`` as an empty cell.  It writes one row at a time; a row of ``str``
cells is joined as it is, and any other row takes that cell rule cell by
cell.  ``format_column`` applies the same rule to a whole column, so a
caller that shares a column between many rows formats it once and hands the
writer ``str`` cells.  The reader skips blank lines and comment rows
wherever they appear, free-text ones from other programs included, strips
whitespace around cells, unquotes quoted cells, and reports a malformed
row, or a comment key given twice, as ``path:line``.
"""

from __future__ import annotations

import csv
from pathlib import Path


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return str(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


_BOOL_TEXT = {False: "false", True: "true"}


def format_column(cells):
    """The text of each of ``cells`` under the cell rule, as an iterable.

    Dispatches once on the column's exact cell types: all ``float`` or all
    ``int`` map that type's ``repr``, all ``bool`` look their text up, and
    any other column takes the cell rule cell by cell.
    """
    # Exact types only: bool is an int, so an isinstance test would mix the
    # paths up.
    kinds = set(map(type, cells))
    if kinds == {float}:
        return map(float.__repr__, cells)
    if kinds == {int}:
        return map(int.__repr__, cells)
    if kinds == {bool}:
        return map(_BOOL_TEXT.__getitem__, cells)
    return map(_format_cell, cells)


def write_table(path, comments, header, rows) -> None:
    """Write comment rows, the header and one line per row to ``path``.

    Each comment is a ``(key, value)`` pair, written ``key=value`` with the
    value formatted as a cell; a key given twice raises ValueError, as the
    reader refuses it.  Cells are ``None``, ``str``, ``bool``, ``int`` or
    ``float``.  ``rows`` is any iterable of rows, lazy ones included, and
    each row is a sequence as long as ``header`` (any other length raises
    ValueError, as the reader would refuse the line).  Rows are written to
    the open file one at a time, so no copy of the whole text is built.  If
    writing fails, a refused row or a raising row source included, the
    partial file is removed before the error propagates: the reader would
    accept a truncated table as a whole one.
    """
    keys = [key for key, _ in comments]
    if len(set(keys)) != len(keys):
        raise ValueError(f"repeated comment key in {keys}")
    width = len(header)
    fh = open(path, "w")
    try:
        with fh:
            for key, value in comments:
                fh.write(f"# {key}={_format_cell(value)}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                if len(row) != width:
                    raise ValueError(f"expected {width} columns, got {len(row)}")
                try:
                    # the cell rule writes a str as itself
                    line = ",".join(row)
                except TypeError:
                    line = ",".join(map(_format_cell, row))
                fh.write(line + "\n")
    except BaseException:
        Path(path).unlink()
        raise


def convert_cell(where, name, convert, cell):
    """``convert(cell)``, or a ValueError naming ``where`` and ``name``."""
    try:
        return convert(cell)
    except ValueError:
        raise ValueError(f"{where}: {name}: could not parse {cell!r} as "
                         f"{convert.__name__}") from None


def read_table(path, header, types) -> tuple[dict[str, str], list[tuple]]:
    """Read a table whose header row is exactly ``header``.

    Returns the ``# key=value`` metadata as strings, and one tuple per row
    whose cell ``i`` is converted by ``types[i]``.  A key given by two
    comment rows raises ValueError.
    """
    header = list(header)
    expected = ",".join(header)
    metadata: dict[str, str] = {}
    rows: list[tuple] = []
    seen_header = False
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            key, sep, value = text[1:].partition("=")
            if sep:
                if key.strip() in metadata:
                    raise ValueError(f"{path}:{lineno}: repeated comment key {key.strip()!r}")
                metadata[key.strip()] = value.strip()
            continue
        cells = [c.strip() for c in next(csv.reader([line]))]
        if not seen_header:
            if cells != header:
                raise ValueError(f"{path}:{lineno}: expected header {expected!r}")
            seen_header = True
            continue
        if len(cells) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, "
                             f"got {len(cells)}")
        where = f"{path}:{lineno}"
        rows.append(tuple(convert_cell(where, name, convert, cell)
                          for name, convert, cell in zip(header, types, cells)))
    if not seen_header:
        raise ValueError(f"{path}: missing header row {expected!r}")
    return metadata, rows
