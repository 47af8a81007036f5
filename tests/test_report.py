import json
from fractions import Fraction

import pytest

from qsafe.cli_report import render_report, round_half_up


def test_round_half_up_basic():
    assert round_half_up(Fraction(10_969 * 600, 3600)) == "1828.17"
    assert round_half_up(Fraction(7_842 * 600, 3600)) == "1307.00"
    assert round_half_up(Fraction(1, 8)) == "0.13"
    assert round_half_up(3) == "3.00"
    assert round_half_up(Fraction(5, 2)) == "2.50"
    assert round_half_up(0.1) == "0.10"  # a float at its binary value


def test_round_half_up_ties_go_up():
    # format() rounds half to even and would print 0.12 here
    assert round_half_up(Fraction(1, 8)) != f"{1 / 8:.2f}"
    assert round_half_up(Fraction(25, 1000)) == "0.03"
    assert round_half_up(Fraction(-469, 200)) == "-2.34"
    assert round_half_up(Fraction(-5, 1000)) == "0.00"


ROWS = [
    {"name": "a", "count": 2, "hours": Fraction(1, 3)},
    {"name": "b", "count": 30, "hours": Fraction(7, 2)},
]


def test_render_csv():
    text = render_report(ROWS, "csv", rounded={"hours"})
    assert text == "name,count,hours\na,2,0.33\nb,30,3.50\n"


def test_render_markdown():
    text = render_report(ROWS, "md", rounded={"hours"})
    lines = text.splitlines()
    assert lines[0] == "| name | count | hours |"
    assert lines[1] == "| --- | --- | --- |"
    assert lines[2] == "| a | 2 | 0.33 |"
    assert text.endswith("\n")


def test_render_json_keeps_full_precision():
    # rounding is a table-display concern; JSON consumers get the real value
    text = render_report(ROWS, "json", rounded={"hours"})
    payload = json.loads(text)
    assert payload == [
        {"name": "a", "count": 2, "hours": 1 / 3},
        {"name": "b", "count": 30, "hours": 3.5},
    ]
    assert text.endswith("\n")


def test_unrounded_fractions_render_as_floats():
    rows = [{"x": Fraction(1, 4)}]
    assert render_report(rows, "csv") == "x\n0.25\n"
    assert json.loads(render_report(rows, "json")) == [{"x": 0.25}]


def test_empty_rows():
    with pytest.raises(ValueError):
        render_report([], "csv")


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="csv, json, md"):
        render_report(ROWS, "tsv")
