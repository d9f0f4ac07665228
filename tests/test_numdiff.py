"""Self-test of the numdiff gate on reports the structured emitter writes."""

import json
from fractions import Fraction

import pytest

import numdiff
from envlab.report import Report, Table, emit_report


def structured(scalars, rows) -> dict:
    table = Table("sweep", ("t", "re", "label"), tuple(rows))
    return json.loads(emit_report(Report("pointer", tuple(scalars), (table,)), "structured"))


BEFORE = structured([("records", 3), ("p", Fraction(1, 3)), ("clean", True)],
                    [(0.0, 0.123456789012, "a"), (1.0, 1e-16, "b")])


@pytest.mark.parametrize("scalars, rows, moved", [
    # one unit in the 12th printed digit, and a move of 2e-16 near zero
    ([("records", 3), ("p", Fraction(1, 3)), ("clean", True)],
     [(0.0, 0.123456789013, "a"), (1.0, -1e-16, "b")],
     [("sweep[0].re", True), ("sweep[1].re", True)]),
    # an int, a fraction, a boolean, a string and a float two units out
    ([("records", 4), ("p", Fraction(2, 3)), ("clean", False)],
     [(0.0, 0.123456789014, "a"), (1.0, 1e-16, "c")],
     [("records", False), ("p", False), ("clean", False), ("sweep[0].re", False),
      ("sweep[1].label", False)]),
    # a float that prints as an int still compares as a float
    ([("records", 3), ("p", Fraction(1, 3)), ("clean", True)],
     [(-0.0, 0.123456789012, "a"), (1.00000000001, 1e-16, "b")],
     [("sweep[0].t", True), ("sweep[1].t", True)]),
])
def test_every_moved_value_is_listed_with_its_verdict(scalars, rows, moved, capsys,
                                                      tmp_path):
    after = structured(scalars, rows)
    moves = numdiff.compare(BEFORE, after)
    assert [(m.where, m.agrees) for m in moves] == moved
    paths = []
    for name, report in (("before", BEFORE), ("after", after)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(report))
    assert numdiff.main([str(p) for p in paths]) == int(not all(a for _, a in moved))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(moved) + 1
    assert lines[-1].startswith(f"{len(moved)} of 9 values moved")


@pytest.mark.parametrize("scalars, rows, part", [
    ([("records", 3), ("p", Fraction(1, 3))], [(0.0, 0.1, "a"), (1.0, 0.2, "b")],
     "scalar names"),
    ([("records", 3), ("p", Fraction(1, 3)), ("clean", True)], [(0.0, 0.1, "a")],
     "tables"),
])
def test_a_layout_change_is_refused(scalars, rows, part):
    with pytest.raises(ValueError, match=part):
        numdiff.compare(BEFORE, structured(scalars, rows))
