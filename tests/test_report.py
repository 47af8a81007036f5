import json
from fractions import Fraction

import pytest

from qsafe.cli_report import ReportFormat, emit_report, render_report, round_half_up
from qsafe.block_packer import UpgradeScheme


def test_round_half_up_basic():
    assert round_half_up(Fraction(10_969 * 600, 3600), 2) == "1828.17"
    assert round_half_up(Fraction(7_842 * 600, 3600), 2) == "1307.00"
    assert round_half_up(Fraction(1, 8), 2) == "0.13"
    assert round_half_up(3, 2) == "3.00"
    assert round_half_up(Fraction(5, 2), 0) == "3"


def test_round_half_up_ties_go_up():
    # format() rounds half to even and would print 0.12 here
    assert round_half_up(Fraction(1, 8), 2) != f"{1 / 8:.2f}"
    assert round_half_up(Fraction(25, 1000), 2) == "0.03"
    assert round_half_up(Fraction(-469, 200), 2) == "-2.34"


def test_round_half_up_rejects_negative_decimals():
    with pytest.raises(ValueError):
        round_half_up(1, -1)


ROWS = [
    {"name": "a", "count": 2, "hours": Fraction(1, 3)},
    {"name": "b", "count": 30, "hours": Fraction(7, 2)},
]


def test_render_csv():
    text = render_report(ROWS, "csv", round_to={"hours": 2})
    assert text == "name,count,hours\na,2,0.33\nb,30,3.50\n"


def test_render_markdown():
    text = render_report(ROWS, ReportFormat.MARKDOWN, round_to={"hours": 2})
    lines = text.splitlines()
    assert lines[0] == "| name | count | hours |"
    assert lines[1] == "| --- | --- | --- |"
    assert lines[2] == "| a | 2 | 0.33 |"
    assert text.endswith("\n")


def test_render_json_keeps_full_precision():
    # rounding is a table-display concern; JSON consumers get the real value
    text = render_report(ROWS, "json", round_to={"hours": 2})
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


def test_enums_render_by_value():
    rows = [{"scheme": UpgradeScheme.ECDSA_SEGWIT}]
    assert render_report(rows, "csv") == "scheme\necdsa-segwit\n"
    assert json.loads(render_report(rows, "json")) == [{"scheme": "ecdsa-segwit"}]


def test_empty_rows():
    with pytest.raises(ValueError):
        render_report([], "csv")


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_report(ROWS, "tsv")


def test_emit_report_writes_exact_bytes(tmp_path):
    destination = tmp_path / "out.csv"
    text = emit_report(ROWS, "csv", round_to={"hours": 2}, destination=str(destination))
    assert destination.read_bytes() == text.encode("utf-8")


def test_emit_without_destination_only_returns():
    assert emit_report(ROWS, "csv") == render_report(ROWS, "csv")
