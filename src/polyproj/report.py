"""Report rows with a fixed column schema and deterministic serialization.

Same rows in, same bytes out: floats are serialized with repr (shortest
round-trip form), missing values are empty CSV cells / JSON nulls, and the
column order never varies.  Wall times are recorded only when timings are
requested, so default reports are byte-identical across runs and worker
counts.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields

from .errors import InvalidArgumentError

_INT_COLS = {"n", "d", "k"}
_FLOAT_COLS = {"t", "value", "stderr", "formula_value", "z_score", "t_functional", "wall_time_s"}
_BOOL_COLS = {"strict_increase"}


@dataclass(frozen=True)
class ReportRow:
    command: str = ""
    model: str = ""
    family: str = ""
    n: int | None = None
    d: int | None = None
    k: int | None = None
    t: float | None = None
    value: float | None = None
    stderr: float | None = None
    method: str = ""
    strict_increase: bool | None = None
    formula_value: float | None = None
    z_score: float | None = None
    t_functional: float | None = None
    wall_time_s: float | None = None


# the fixed column order of every report
COLUMNS = tuple(f.name for f in fields(ReportRow))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # a NumPy float's own repr reads np.float64(...)
    return str(value)


def to_csv(rows: list[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([_cell(getattr(row, c)) for c in COLUMNS])
    return buf.getvalue()


def _parse_cell(col: str, text: str):
    if text == "":
        return None if col in _INT_COLS | _FLOAT_COLS | _BOOL_COLS else ""
    if col in _INT_COLS:
        return int(text)
    if col in _FLOAT_COLS:
        return float(text)
    if col in _BOOL_COLS:
        if text not in ("true", "false"):
            raise ValueError(f"expected true or false, got {text!r}")
        return text == "true"
    return text


def from_csv(text: str) -> list[ReportRow]:
    """The rows of a to_csv report; anything else is an InvalidArgumentError that names the line.

    The header must be COLUMNS, every row must have one cell per column, and
    every cell must be what to_csv writes for its column.  Blank lines are skipped.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise InvalidArgumentError("empty report: no header line")
    if tuple(header) != COLUMNS:
        raise InvalidArgumentError(f"line 1: unexpected report header {header}")
    rows = []
    for line in reader:
        if not line:
            continue
        if len(line) != len(COLUMNS):
            raise InvalidArgumentError(f"line {reader.line_num}: {len(line)} cells, expected {len(COLUMNS)}")
        cells = {}
        for c, cell in zip(COLUMNS, line):
            try:
                cells[c] = _parse_cell(c, cell)
            except ValueError as exc:
                raise InvalidArgumentError(f"line {reader.line_num}, column {c}: {exc}") from None
        rows.append(ReportRow(**cells))
    return rows


def to_json(rows: list[ReportRow]) -> str:
    payload = [asdict(row) for row in rows]  # asdict keeps field order, which is COLUMNS
    return json.dumps(payload, indent=2) + "\n"


def render(rows: list[ReportRow], fmt: str) -> str:
    if fmt == "csv":
        return to_csv(rows)
    if fmt == "json":
        return to_json(rows)
    raise InvalidArgumentError(f"unknown report format {fmt!r}")
