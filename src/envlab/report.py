"""Deterministic text rendering for batch results.

Every value is formatted through one function so the three output styles
(aligned table, CSV, JSON) agree byte for byte across runs: exact fractions
print as "a/b", floats at 12 significant digits.  No locale, no timestamps,
no hashing of dict order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

FORMATS = ("table", "csv", "structured")


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple
    rows: tuple


@dataclass(frozen=True)
class Report:
    title: str
    scalars: tuple = ()   # ordered (name, value) pairs
    tables: tuple = ()


def format_value(value) -> str:
    if type(value) is float:  # the common cell, before any ABC isinstance check
        return f"{value:.12g}"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _formatted_row(table: Table, row) -> list:
    cells = [format_value(c) for c in row]
    if len(cells) != len(table.columns):
        raise ValueError(f"row width mismatch in table {table.name!r}")
    return cells


def _formatted_rows(table: Table) -> list:
    return [_formatted_row(table, row) for row in table.rows]


def _emit_table_style(report: Report) -> str:
    lines = [f"# {report.title}"]
    for name, value in report.scalars:
        lines.append(f"{name} = {format_value(value)}")
    for table in report.tables:
        lines.append("")
        lines.append(f"[{table.name}]")
        rows = _formatted_rows(table)
        header = [str(c) for c in table.columns]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
        for row in rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _emit_csv(report: Report) -> str:
    lines = [f"# title={report.title}"]
    for name, value in report.scalars:
        lines.append(f"# {name}={format_value(value)}")
    for table in report.tables:
        lines.append(f"# table={table.name}")
        lines.append(",".join(str(c) for c in table.columns))
        for row in _formatted_rows(table):
            for cell in row:
                if "," in cell:
                    raise ValueError(f"comma inside CSV cell {cell!r}")
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _json_array(items, indent: str) -> str:
    # JSON texts laid out as a list the way json.dumps(..., indent=2) does
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _emit_structured(report: Report) -> str:
    # the bytes of json.dumps(payload, indent=2) for the payload of title,
    # scalars and tables, all strings.  Each row is formatted, encoded and
    # laid out on its own, and the pieces are joined once at the end, so
    # neither the formatted cells of a whole table nor a joined body is held
    # beside the result
    enc = encode_basestring_ascii
    scalars = {name: format_value(v) for name, v in report.scalars}
    out = ['{\n  "title": ', enc(report.title), ',\n  "scalars": ']
    if scalars:
        out.append("{")
        for n, (name, value) in enumerate(scalars.items()):
            out += ("\n    " if n == 0 else ",\n    ", enc(name), ": ", enc(value))
        out.append("\n  }")
    else:
        out.append("{}")
    out.append(',\n  "tables": ')
    for n, table in enumerate(report.tables):
        out += ("[\n    " if n == 0 else ",\n    ", '{\n      "name": ', enc(table.name),
                ',\n      "columns": ', _json_array([enc(c) for c in table.columns], "      "),
                ',\n      "rows": ')
        for r, row in enumerate(table.rows):
            out += ("[\n        " if r == 0 else ",\n        ",
                    _json_array([enc(c) for c in _formatted_row(table, row)], "        "))
        out.append("\n      ]\n    }" if table.rows else "[]\n    }")
    out.append("\n  ]\n}\n" if report.tables else "[]\n}\n")
    return "".join(out)


def emit_report(report: Report, fmt: str) -> str:
    if fmt == "table":
        return _emit_table_style(report)
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "structured":
        return _emit_structured(report)
    raise ValueError(f"unknown format {fmt!r}; choose from {FORMATS}")
