"""Numeric diff of two ``envlab ... --format structured`` reports.

    python tests/numdiff.py BEFORE.json AFTER.json [--atol 1e-14]

The title, the scalar names, and each table's name, columns and row count
must match.  Values are compared by their printed text: ints, fractions,
booleans and strings with ==, and two floats agree when
|a - b| <= atol + 1e-11 * max(|a|, |b|), the second term being one unit in
the 12th significant digit that ``format_value`` prints.  Every value whose
text changed is listed, agreeing or not, then a summary line.  Exit 0 when
every value agrees, 1 when one does not or the layouts differ.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import NamedTuple

REL_TOL = 1e-11
DEFAULT_ATOL = 1e-14
# format_value prints an int with no point, exponent or negative zero
_INT = re.compile(r"-?[1-9][0-9]*|0")


class Move(NamedTuple):
    where: str
    before: str
    after: str
    agrees: bool


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None  # a fraction, boolean, none or other string


def agree(before: str, after: str, atol: float = DEFAULT_ATOL) -> bool:
    """Whether two printed values agree: == but for two floats within tolerance."""
    if before == after:
        return True
    a, b = _number(before), _number(after)
    if a is None or b is None or (_INT.fullmatch(before) and _INT.fullmatch(after)):
        return False
    return abs(a - b) <= atol + REL_TOL * max(abs(a), abs(b))


def _layout(report: dict) -> tuple:
    return (report["title"], list(report["scalars"]),
            [(t["name"], t["columns"], len(t["rows"])) for t in report["tables"]])


def _values(report: dict):
    for name, value in report["scalars"].items():
        yield name, value
    for table in report["tables"]:
        for r, row in enumerate(table["rows"]):
            for column, value in zip(table["columns"], row):
                yield f"{table['name']}[{r}].{column}", value


def compare(before: dict, after: dict, atol: float = DEFAULT_ATOL) -> list:
    """Every value whose text moved between two parsed reports, as Moves.

    Raises ValueError naming the first part of the layout that differs.
    """
    for part, a, b in zip(("title", "scalar names", "tables"), _layout(before),
                          _layout(after)):
        if a != b:
            raise ValueError(f"{part} differ: {a!r} != {b!r}")
    return [Move(where, a, b, agree(a, b, atol))
            for (where, a), (_, b) in zip(_values(before), _values(after)) if a != b]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--atol", type=float, default=DEFAULT_ATOL)
    args = parser.parse_args(argv)
    reports = [json.loads(Path(path).read_text(encoding="utf-8"))
               for path in (args.before, args.after)]
    try:
        moves = compare(*reports, atol=args.atol)
    except ValueError as exc:
        print(f"layout: {exc}")
        return 1
    for move in moves:
        mark = "" if move.agrees else "  BEYOND TOLERANCE"
        print(f"{move.where}: {move.before} -> {move.after}{mark}")
    beyond = sum(not move.agrees for move in moves)
    total = sum(1 for _ in _values(reports[0]))
    print(f"{len(moves)} of {total} values moved, {beyond} beyond tolerance "
          f"(atol {args.atol:g}, rel {REL_TOL:g})")
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main())
