"""Every argv that ``run()`` accepts prints finite cells; every other one
exits 1 with one error line.

Argv is generated from each subcommand's own flags, read from the
parser, with values drawn from extreme and malformed literals.  Snapshot
files are generated the same way, as bytes.
"""

import argparse
import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qsafe.cli_report import build_parser, run

HUGE = str(2**128)
LITERALS = (
    "1e-400", "5e-324", "1e308", HUGE, "-0", "-1/2", "-1e-3", "1/0", "nan", "inf", "abc", ""
)
# A few ordinary values, so that accepted runs are common too.
VALUES = st.sampled_from(LITERALS) | st.sampled_from(("0", "1", "1/2", "0.3", "256"))
# Any count of trials is legal; large ones are only slow.
TRIALS = st.integers(1, 2000).map(str) | st.sampled_from([v for v in LITERALS if v != HUGE])

SUBCOMMANDS = next(
    action.choices
    for action in build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
)
# Path flags are left out: a missing file is an I/O failure, exit 2.
PATH_FLAGS = {"--out", "--snapshot"}


def flag_argv(action):
    """Strategy for one use of an option, as a list of argv words."""
    flag = action.option_strings[-1]
    if action.nargs == 0:
        return st.just([flag])
    if flag == "--trials":
        values = TRIALS
    elif action.choices is not None:
        values = st.sampled_from(list(action.choices)) | VALUES
    else:
        values = VALUES
    return values.map(lambda value: [flag, value])


def argvs(command):
    options = [
        flag_argv(action)
        for action in SUBCOMMANDS[command]._actions
        if action.option_strings and action.dest != "help"
        and action.option_strings[-1] not in PATH_FLAGS
    ]
    uses = st.lists(st.one_of(options), max_size=5)
    argv = uses.map(lambda words: [command] + [word for use in words for word in use])
    if command == "attack":
        # The default of 100,000 trials a row would only slow the search.
        argv = st.tuples(argv, TRIALS).map(lambda pair: pair[0] + ["--trials", pair[1]])
    return argv


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def cells(text, fmt):
    if fmt == "json":
        return [str(value) for row in json.loads(text) for value in row.values()]
    if fmt == "md":
        lines = text.splitlines()[2:]  # past the header and its rule
        return [cell.strip() for line in lines for cell in line.strip("|").split("|")]
    return [cell for row in list(csv.reader(io.StringIO(text)))[1:] for cell in row]


def assert_finite_cells(text, fmt):
    found = cells(text, fmt)
    assert found
    assert not [cell for cell in found if cell.lower().lstrip("-") in ("nan", "inf", "infinity")]


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_run_prints_finite_cells_or_exits_one_with_one_error_line(command, data):
    argv = data.draw(argvs(command), label="argv")
    code, out, err = run_captured(argv)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        fmt = "csv"
        for word, value in zip(argv, argv[1:]):
            if word == "--format":
                fmt = value  # the last one given wins
        assert_finite_cells(out, fmt)
    else:
        assert code == 1
        assert out == ""
        assert err.startswith("qsafe: error: ")
        assert sum(line.startswith("qsafe: error:") for line in err.splitlines()) == 1


# Snapshot files: values from tiny and huge to not numbers at all, nesting
# past what json decodes, and bytes that are not UTF-8.
DEPTHS = st.integers(1, 3_000) | st.just(200_000)
NUMBERS = st.one_of(
    st.integers().map(str),
    st.integers(4_000, 5_000).map(lambda digits: "9" * digits),  # Python's int-digit limit
    st.sampled_from(["1e-400", "5e-324", "1e400", "-0", "0.3", "1.5", "-1", "10.5"]),
    st.sampled_from(["NaN", "Infinity", "-Infinity"]),
)
JSON_VALUES = (
    NUMBERS
    | st.sampled_from(["true", "null", '"10"', "[]", "{}"])
    | DEPTHS.map(lambda depth: "[" * depth + "]" * depth)
)
SNAPSHOT_TEXTS = st.one_of(
    st.builds('{{"total_utxos": {}, "schnorr_fraction": {}}}'.format, JSON_VALUES, JSON_VALUES),
    st.builds('{{"total_utxos": {}}}'.format, JSON_VALUES),
    DEPTHS.map(lambda depth: "[" * depth),
    st.sampled_from(["", "{", "[1, 2]", '{"as_of": "2024-06"}']),
)
SNAPSHOT_FILES = st.one_of(
    SNAPSHOT_TEXTS.map(str.encode),
    st.builds(bytes.__add__, st.sampled_from([b"\xff\xfe", b"\xef\xbb\xbf", b"\x80"]),
              SNAPSHOT_TEXTS.map(str.encode)),
    st.binary(max_size=64),
)


# Each example writes its file afresh, so sharing tmp_path is safe.
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(body=SNAPSHOT_FILES)
@example(body=b"[" * 200_000)
@example(body=b'{"total_utxos": ' + b"9" * 5_000 + b"}")
@example(body=b'\xff\xfe{"total_utxos": 10}')
def test_a_snapshot_file_prints_finite_cells_or_exits_one_naming_it(tmp_path, body):
    path = tmp_path / "snapshot.json"
    path.write_bytes(body)
    code, out, err = run_captured(["plan", "--snapshot", str(path)])
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        assert_finite_cells(out, "csv")
    else:
        assert code == 1 and out == ""
        assert err.startswith(f"qsafe: error: snapshot {path}: ")
        assert err.count("\n") == 1


@pytest.mark.xfail(
    strict=True,
    reason="an unrounded Fraction is printed through float, so 1e-400 prints as 0.0; "
    "the fix changes the default impact bytes and waits for the benchmark oracle",
)
def test_plan_prints_a_tiny_bandwidth_exactly():
    code, out, err = run_captured(["plan", "--bandwidth", "1e-400", "--format", "csv"])
    assert (code, err) == (0, "")
    row = next(csv.DictReader(io.StringIO(out)))
    assert Fraction(row["bandwidth"]) == Fraction("1e-400")
