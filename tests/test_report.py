import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from polyproj import InvalidArgumentError, ReportRow, from_csv, render, to_csv, to_json
from polyproj.report import _FLOAT_COLS, COLUMNS

FULL = ReportRow(
    command="simulate", model="gaussian", family="", n=5, d=2, k=0,
    t=None, value=6.125, stderr=0.03125, method="monte_carlo",
    strict_increase=None, formula_value=6.0999999999, z_score=0.1,
    t_functional=None, wall_time_s=None,
)
SPARSE = ReportRow(command="expected", family="cube", n=4, d=3, k=1, value=24.0,
                   stderr=0.0, method="exact")
FLAGGED = ReportRow(command="monotonicity", model="zonotope", n=3, d=2, k=0,
                    value=6.0, stderr=0.0, method="exact", strict_increase=True)
EDGE = ReportRow(command="simulate", model="zonotope", n=4, d=3, k=0, value=14.0,
                 stderr=0.0, method="monte_carlo", formula_value=14.0,
                 z_score=float("inf"), strict_increase=False)

ROWS = [FULL, SPARSE, FLAGGED, EDGE]


def test_csv_round_trip():
    text = to_csv(ROWS)
    assert text.splitlines()[0] == ",".join(COLUMNS)
    assert from_csv(text) == ROWS
    # blank lines, between rows and at the end, are skipped
    lines = text.splitlines()
    assert from_csv("\n".join([lines[0], "", *lines[1:3], "", "", *lines[3:], ""]) + "\n") == ROWS


def test_json_round_trip():
    assert json.loads(to_json(ROWS)) == [asdict(r) for r in ROWS]


def test_csv_header_is_checked():
    bad = "a,b,c\n1,2,3\n"
    with pytest.raises(InvalidArgumentError, match="line 1: unexpected report header"):
        from_csv(bad)


def test_empty_csv_is_a_typed_error():
    # next() on the reader raised a bare StopIteration
    with pytest.raises(InvalidArgumentError, match="empty report"):
        from_csv("")


@pytest.mark.parametrize("shape", ["short", "long"])
def test_csv_row_with_the_wrong_cell_count_is_rejected(shape):
    # zip truncated a long row, and a short one took defaults for its missing cells
    header, line = to_csv([SPARSE]).splitlines()
    cells = line.split(",")
    cells = cells[:-1] if shape == "short" else cells + ["x"]
    with pytest.raises(InvalidArgumentError, match=f"line 2: {len(cells)} cells, expected {len(COLUMNS)}"):
        from_csv(f"{header}\n{','.join(cells)}\n")


@pytest.mark.parametrize("column, text", [("strict_increase", "yes"), ("strict_increase", "True"),
                                          ("n", "three"), ("value", "1.0.0")])
def test_csv_cell_that_to_csv_cannot_write_is_rejected(column, text):
    # a strict_increase other than "true" read as false, and a bad number was a plain ValueError
    lines = to_csv([FLAGGED, SPARSE]).splitlines()
    cells = lines[2].split(",")
    cells[COLUMNS.index(column)] = text
    lines[2] = ",".join(cells)
    with pytest.raises(InvalidArgumentError, match=f"line 3, column {column}: "):
        from_csv("\n".join(lines) + "\n")


def test_float_cells_round_trip_exactly():
    row = from_csv(to_csv([FULL]))[0]
    assert row.formula_value == 6.0999999999
    assert row.stderr == 0.03125


def test_numpy_floats_in_every_float_column_render_as_floats():
    # repr of np.float64 reads np.float64(0.5) under NumPy 2, which from_csv rejected
    values = {col: np.float64(0.5 + i) for i, col in enumerate(sorted(_FLOAT_COLS))}
    values["z_score"] = np.float64(-np.inf)
    row = replace(FULL, **values)
    text = to_csv([row])
    assert "np." not in text
    back = from_csv(text)[0]
    assert back == replace(FULL, **{col: float(v) for col, v in values.items()})
    assert all(type(getattr(back, col)) is float for col in _FLOAT_COLS)
    assert to_csv([back]) == text


def test_bool_cells():
    lines = to_csv([FLAGGED, EDGE]).splitlines()
    assert ",true," in lines[1]
    assert ",false," in lines[2]


def test_missing_cells_are_empty_or_null():
    text = to_csv([SPARSE])
    line = text.splitlines()[1]
    assert line.split(",")[6] == ""  # the t column
    js = to_json([SPARSE])
    assert '"t": null' in js


def test_render_dispatch():
    assert render(ROWS, "csv") == to_csv(ROWS)
    assert render(ROWS, "json") == to_json(ROWS)
    with pytest.raises(InvalidArgumentError, match="unknown report format 'xml'"):
        render(ROWS, "xml")


def test_serialization_is_deterministic():
    assert to_csv(ROWS) == to_csv(list(ROWS))
    assert to_json(ROWS) == to_json(list(ROWS))
