"""The one table format, as every reader of it sees it."""

import enum
import math

import numpy as np
import pytest

from zenometry.channel import TabulatedMode, load_bd_calibration
from zenometry.decay import Tabulated
from zenometry.fringes import FringeDataset
from zenometry.tables import _format_cell, format_column, read_table, write_table

# reader, required comment rows, header, three data rows, and the values the
# reader loaded (compared between variants of one file).
READERS = {
    "decay": (
        Tabulated.from_csv, [], "t,gamma",
        ["0.0,0.0", "1.0,0.3", "2.0,0.8"],
        lambda tab: tab.samples,
    ),
    "profile": (
        TabulatedMode.from_csv, [], "x,amplitude",
        ["-1.0,0.5", "0.0,1.0", "1.0,0.5"],
        lambda mode: (mode.positions.tolist(), mode.amplitudes.tolist()),
    ),
    "calibration": (
        load_bd_calibration, [],
        "per_bd_displacement_mm,intensity_plus,intensity_minus",
        ["0.235,4.09,0.116", "0.455,3.91,0.381", "0.52,3.82,0.471"],
        lambda rows: rows,
    ),
    "fringe": (
        FringeDataset.from_csv,
        ["# strategy=ghz", "# n_qubits=1", "# interrogation_time=0.5"],
        "theta,n_plus,n_total,estimate,stderr",
        ["0.0,9,10,0.8,0.1", "1.5,5,10,0.0,0.3", "3.0,1,10,-0.8,0.1"],
        lambda data: [a.tolist() for a in (data.theta, data.n_plus,
                                           data.n_total, data.estimate,
                                           data.stderr)],
    ),
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_reader_contract(tmp_path, kind):
    reader, meta, header, rows, loaded = READERS[kind]

    def load(lines, name):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return path, reader(path)

    # Line numbers below count the comment rows in front of the header.
    first = len(meta) + 2
    _, plain = load([*meta, header, *rows], "plain.csv")
    expected = loaded(plain)

    bogus = "bogus" + header[header.index(","):]
    with pytest.raises(ValueError, match="header"):
        load([*meta, bogus, *rows], "bad_header.csv")

    cells = rows[1].split(",")
    bad_cell = ",".join([*cells[:-1], "zebra"])
    with pytest.raises(ValueError) as err:
        load([*meta, header, rows[0], bad_cell, rows[2]], "bad_cell.csv")
    assert f"bad_cell.csv:{first + 1}:" in str(err.value)

    with pytest.raises(ValueError) as err:
        load([*meta, header, rows[0], rows[1], rows[2] + ",1"], "wide.csv")
    assert f"wide.csv:{first + 2}:" in str(err.value)

    padded = [f" {line.replace(',', ' ,  ')} " for line in (header, rows[0])]
    _, spaced = load(["# note=ignored", "", *meta, "# a remark", padded[0], "",
                      "   ", padded[1], "# key=value", rows[1], "", rows[2], ""],
                     "spaced.csv")
    assert loaded(spaced) == expected

    quoted = ",".join([f'"{cells[0]}"', *cells[1:]])
    _, unquoted = load([*meta, header, rows[0], quoted, rows[2]], "quoted.csv")
    assert loaded(unquoted) == expected


def test_writer_cells_round_trip(tmp_path):
    path = tmp_path / "cells.csv"
    row = (0.1 + 0.2, 1e-300, 7, True, False, None, "ghz")
    header = ("a", "b", "c", "d", "e", "f", "g")
    write_table(path, [("seed", 42), ("visibility", None)], header, [row])
    assert path.read_text() == (
        "# seed=42\n# visibility=\n"
        "a,b,c,d,e,f,g\n"
        "0.30000000000000004,1e-300,7,true,false,,ghz\n")
    meta, rows = read_table(path, header, (float, float, int, str, str, str, str))
    assert meta == {"seed": "42", "visibility": ""}
    assert rows == [(0.1 + 0.2, 1e-300, 7, "true", "false", "", "ghz")]


class _Level(enum.IntEnum):
    TWO = 2


# One cell of each type the writer meets, and its text.  The program sends
# Python cells only; a numpy float64 or str_ still takes the rule of the
# Python type it subclasses, and an int64 the str fallback.
@pytest.mark.parametrize("cell, text", [
    (None, ""),
    ("ghz", "ghz"),
    (np.str_("ghz"), "ghz"),
    (True, "true"),
    (False, "false"),
    (-7, "-7"),
    (np.int64(-7), "-7"),
    (np.int64(2**62), "4611686018427387904"),
    (_Level.TWO, "2"),
    (0.1, "0.1"),
    (-0.0, "-0.0"),
    (math.inf, "inf"),
    (np.float64(0.1), "0.1"),
    (np.float64(1e-320), "1e-320"),
], ids=repr)
def test_format_cell_text(cell, text):
    assert _format_cell(cell) == text


def per_row_reference(comments, header, rows) -> str:
    """The text of a table with every cell through ``_format_cell``, one
    row at a time."""
    lines = [f"# {key}={_format_cell(value)}" for key, value in comments]
    lines.append(",".join(header))
    lines += [",".join(map(_format_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 0.1 + 0.2,
                  -1.5e-300, 1e22, 5e-324, 2.0 / 3.0)
MIXED_CELLS = (1.25, -7, True, False, -0.0, 1e-300, -12, _Level.TWO, None,
               "ghz", "", math.nan, -math.inf)
WIDE_HEADER = ("float_then_none", "int", "bool", "mixed", "ratio",
               "negated", "text", "int_or_bool", "str_then_mixed",
               "bool_then_int")
# Index of the first row that breaks a column of one exact type
BREAK = 1024


def str_then_mixed(i: int):
    if i == BREAK:
        return None
    if i == BREAK + 1:
        return 2.5
    return ("", "ghz", "a b", "1.5")[i % 4]


def wide_rows(count: int) -> list[tuple]:
    """Rows that put every cell kind in one table.  Some columns hold one
    exact type for the first ``BREAK`` rows and break it after: exact
    floats, then None; exact ints, then one bool; exact strs, then None and
    a float; exact bools, then an int."""
    rows = []
    for i in range(count):
        rows.append((
            None if i == BREAK else SPECIAL_FLOATS[i % 10] * (i + 1),
            (-1) ** i * i * 10**(i % 25),
            i % 3 == 0,
            MIXED_CELLS[i % len(MIXED_CELLS)],
            i / 7.0,
            -i,
            f"s{i}",
            (i == BREAK + 1) or i,
            str_then_mixed(i),
            i % 2 if i == BREAK + 2 else i % 5 == 1,
        ))
    return rows


def text_row(i: int) -> tuple:
    """A row of ``str`` cells only, as a caller that formatted its cells
    itself sends them."""
    return (f"{i}.5", "", "true", "ghz", "-0.0", f"s{i}", "a b", "inf",
            "1e-300", str(-i))


@pytest.mark.parametrize("count", [0, 1, BREAK - 1, BREAK, BREAK + 1,
                                   2 * BREAK + 3])
def test_writer_matches_per_row_reference(tmp_path, count):
    comments = [("seed", 42), ("visibility", None), ("divisor", 0.81),
                ("flag", True)]
    # every third row is all str, so the writer's two row paths alternate
    rows = [text_row(i) if i % 3 == 2 else row
            for i, row in enumerate(wide_rows(count))]
    expected = per_row_reference(comments, WIDE_HEADER, rows)
    assert expected.count("\n") == len(comments) + 1 + count
    for name, given in (("list.csv", rows), ("iterator.csv", iter(rows))):
        path = tmp_path / name
        write_table(path, comments, WIDE_HEADER, given)
        assert path.read_bytes() == expected.encode()
    kinds = {frozenset(map(type, row)) for row in rows}
    if count > 2:
        assert frozenset({str}) in kinds and len(kinds) > 1


def test_format_column_is_the_cell_rule():
    rows = wide_rows(2 * BREAK + 3)
    columns = dict(zip(WIDE_HEADER, zip(*rows, strict=True), strict=True))
    # the exact-type paths run on the first BREAK rows, and on the whole of
    # the columns that never break
    for name, kind in (("float_then_none", float), ("int_or_bool", int),
                       ("bool_then_int", bool), ("int", int), ("ratio", float),
                       ("negated", int), ("bool", bool)):
        assert {type(c) for c in columns[name][:BREAK]} == {kind}
    assert _Level.TWO in columns["mixed"] and None in columns["mixed"]
    assert columns["float_then_none"][BREAK] is None
    assert columns["int_or_bool"][BREAK + 1] is True
    assert type(columns["str_then_mixed"][BREAK + 1]) is float
    assert type(columns["bool_then_int"][BREAK + 2]) is int
    for name, column in columns.items():
        for cells in (column[:BREAK], column):
            assert list(format_column(cells)) == [_format_cell(c) for c in cells], name


def test_writer_rejects_a_repeated_comment_key(tmp_path):
    path = tmp_path / "twice.csv"
    with pytest.raises(ValueError, match="repeated comment key"):
        write_table(path, [("seed", 42), ("flag", True), ("seed", 7)], ("a",),
                    [(1,)])


def test_reader_rejects_a_repeated_comment_key(tmp_path):
    # a montecarlo fringe file written before the CLI dropped its config
    # seed row carries two '# seed=' rows
    path = tmp_path / "old.csv"
    path.write_text("# config_sha256=ab\n# seed=5\na\n1\n# seed =7\n")
    with pytest.raises(ValueError, match=rf"old\.csv:5: repeated comment key 'seed'"):
        read_table(path, ("a",), (int,))
    path.write_text("# config_sha256=ab\na\n1\n# seed =7\n")
    assert read_table(path, ("a",), (int,)) == ({"config_sha256": "ab", "seed": "7"},
                                                [(1,)])


def test_writer_rejects_ragged_rows(tmp_path):
    # a row as wide as its neighbours but not the header is refused too:
    # the reader would refuse the line it wrote.  No file is left, as the
    # reader would accept the rows before the refused one as a whole table.
    path = tmp_path / "ragged.csv"
    for rows in ([(1, 2), (3,)], [(1, 2), (3, 4), (5,)],
                 [(1, 2, 3), (4, 5, 6)], [("1", "2", "3")]):
        with pytest.raises(ValueError, match="expected 2 columns"):
            write_table(path, [], ("a", "b"), rows)
        assert not path.exists()


def test_failing_row_source_leaves_no_file(tmp_path):
    def rows():
        yield 1, 2
        yield 3, 4
        raise RuntimeError("source failed")

    path = tmp_path / "partial.csv"
    with pytest.raises(RuntimeError, match="source failed"):
        write_table(path, [("k", 1)], ("a", "b"), rows())
    assert not path.exists()
