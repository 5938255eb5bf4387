"""The one table format, as every reader of it sees it."""

import numpy as np
import pytest

from zenometry.channel import TabulatedMode, load_bd_calibration
from zenometry.decay import Tabulated
from zenometry.fringes import FringeDataset
from zenometry.tables import read_table, write_table

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
    row = (0.1 + 0.2, np.float64(1e-300), np.int64(7), True, np.bool_(False),
           None, "ghz")
    header = ("a", "b", "c", "d", "e", "f", "g")
    write_table(path, ["free text", ("seed", 42), ("visibility", None)],
                header, [row])
    assert path.read_text() == (
        "# free text\n# seed=42\n# visibility=\n"
        "a,b,c,d,e,f,g\n"
        "0.30000000000000004,1e-300,7,true,false,,ghz\n")
    meta, rows = read_table(path, header, (float, float, int, str, str, str, str))
    assert meta == {"seed": "42", "visibility": ""}
    assert rows == [(0.1 + 0.2, 1e-300, 7, "true", "false", "", "ghz")]
