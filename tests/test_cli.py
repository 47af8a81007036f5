import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import pytest

from qsafe import _shown, jit_attack_sim
from qsafe.block_packer import UpgradeScheme
from qsafe.cli_report import (
    DEFAULT_BANDWIDTHS,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    FORMATS,
    _COMMANDS,
    _read,
    load_snapshot,
    run,
)
from qsafe.migration_planner import DEFAULT_SNAPSHOT, lower_bound_duration


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_capacity_include_reserves(capsys):
    code, out, _ = run_capture(capsys, ["capacity", "--include-reserves"])
    assert code == 0
    rows = parse_csv(out)
    usable = 4_000_000 - 320 - 12
    assert int(rows[0]["utxos_per_block"]) == (usable - 210) // 235
    assert int(rows[2]["utxos_per_block"]) == usable // 445


def test_plan_mixed_columns_appear_with_schnorr_fraction(capsys):
    code, out, _ = run_capture(
        capsys, ["plan", "--schnorr-fraction", "0.3", "--bandwidth", "1"]
    )
    assert code == 0
    rows = parse_csv(out)
    assert list(rows[0]) == [
        "bandwidth", "ecdsa_hours", "ecdsa_days", "schnorr_hours", "schnorr_days",
        "mixed_hours", "mixed_days",
    ]
    assert rows[0]["mixed_hours"] == "1671.82"


# At f = 0.41 the binary double of the flag moves the 1/4-share cells in
# their last bit; 0.3 is the paper's example.
@pytest.mark.parametrize("text", ["0.3", "0.41"])
def test_plan_mixed_columns_use_the_exact_schnorr_fraction(capsys, text):
    f = Fraction(text)
    argv = ["plan", "--schnorr-fraction", text]
    assert _read(argv)[1]["--schnorr-fraction"] == f
    code, out, _ = run_capture(capsys, argv + ["--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == len(DEFAULT_BANDWIDTHS)
    for row, bandwidth in zip(rows, DEFAULT_BANDWIDTHS):
        ecdsa, schnorr = (
            lower_bound_duration(DEFAULT_SNAPSHOT, scheme, bandwidth)
            for scheme in (UpgradeScheme.ECDSA_SEGWIT, UpgradeScheme.SCHNORR_TAPROOT)
        )
        hours = (1 - f) * ecdsa + f * schnorr
        assert row["mixed_hours"] == float(hours)
        assert row["mixed_days"] == float(hours / 24)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1/0", "1.5", "-0.1", "abc"])
def test_plan_rejects_schnorr_fraction_outside_unit_interval(capsys, text):
    code, out, err = run_capture(capsys, ["plan", "--schnorr-fraction", text])
    assert code == 1 and out == ""
    assert "schnorr" in err


def test_plan_without_fraction_has_no_mixed_columns(capsys):
    _, out, _ = run_capture(capsys, ["plan", "--bandwidth", "1"])
    assert "mixed_hours" not in out


def test_plan_accepts_fraction_syntax(capsys):
    code, out, _ = run_capture(capsys, ["plan", "--bandwidth", "1/4"])
    assert code == 0
    assert parse_csv(out)[0]["ecdsa_hours"] == "7312.67"


def test_plan_schedule_every_kth(capsys):
    # Bandwidth 1/2 is k = 2: every second block carries upgrades.
    code, out, err = run_capture(
        capsys, ["plan", "--schedule", "k", "--bandwidth", "1/2"]
    )
    assert code == 0 and err == ""
    for row in parse_csv(out):
        assert row["style"] == "k"
        assert int(row["blocks_elapsed"]) == 2 * int(row["upgrade_blocks"])


def test_plan_schedule_every_kth_takes_a_huge_k(capsys):
    # A billion blocks per upgrade block: the timeline is a closed form.
    began = time.perf_counter()
    code, out, err = run_capture(
        capsys, ["plan", "--schedule", "k", "--bandwidth", "1/1000000000"]
    )
    assert time.perf_counter() - began < 10
    assert code == 0 and err == ""
    rows = parse_csv(out)
    assert [row["upgrade_blocks"] for row in rows] == ["10969", "7842"]
    assert [row["blocks_elapsed"] for row in rows] == ["10969000000000", "7842000000000"]
    assert rows[1]["duration_hours"] == "1307000000000.00"


def test_plan_schedule_fraction(capsys):
    code, out, _ = run_capture(
        capsys, ["plan", "--schedule", "fraction", "--bandwidth", "1/2"]
    )
    assert code == 0
    rows = parse_csv(out)
    # floored per-block share finishes one block early on the partial tail
    assert rows[0]["blocks_elapsed"] == "21937"
    assert rows[0]["upgrade_blocks"] == "21937"


def test_plan_schedule_requires_bandwidth(capsys):
    code, _, err = run_capture(capsys, ["plan", "--schedule", "k"])
    assert code == 1
    assert "--bandwidth" in err


@pytest.mark.parametrize("schedule", ["k", "fraction"])
def test_plan_schedule_rejects_schnorr_fraction(capsys, schedule):
    code, out, err = run_capture(
        capsys,
        ["plan", "--schedule", schedule, "--bandwidth", "1/2", "--schnorr-fraction", "0.3"],
    )
    assert code == 1 and out == ""
    assert err.startswith("qsafe: error:") and err.count("\n") == 1
    assert "whole pool under each scheme" in err


def test_plan_schedule_k_needs_unit_fraction(capsys):
    code, _, err = run_capture(
        capsys, ["plan", "--schedule", "k", "--bandwidth", "0.3"]
    )
    assert code == 1
    assert "unit fraction" in err


@pytest.mark.parametrize(
    "schedule, column",
    [([], "ecdsa_hours"), (["--schedule", "k"], "duration_hours")],
    ids=["table", "every-kth"],
)
def test_json_refuses_a_duration_too_large_for_a_float(schedule, column):
    # 1e-400 is a valid bandwidth, but the durations it gives exceed the
    # largest float.  Run cold, so an uncaught error would print its
    # traceback here.
    result = subprocess.run(
        [sys.executable, "-m", "qsafe", "plan", *schedule, "--bandwidth", "1e-400",
         "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", f"qsafe: error: {column}: value too large for a JSON number\n"
    )


def test_plan_bandwidth_out_of_range(capsys):
    code, _, err = run_capture(capsys, ["plan", "--bandwidth", "2"])
    assert code == 1
    assert "bandwidth" in err


@pytest.mark.parametrize("text", ["0", "3/2", "-1/2"])
@pytest.mark.parametrize("schedule", [[], ["--schedule", "fraction"]], ids=["table", "fraction"])
def test_plan_rejects_bandwidth_outside_unit_interval(capsys, schedule, text):
    code, out, err = run_capture(capsys, ["plan", *schedule, f"--bandwidth={text}"])
    assert code == 1 and out == ""
    assert f"bandwidth must be in (0, 1], got {text}" in err


@pytest.mark.parametrize("text", ["0", "3/2", "-1/2"])
def test_plan_schedule_k_rejects_bandwidth_as_not_a_unit_fraction(capsys, text):
    code, out, err = run_capture(capsys, ["plan", "--schedule", "k", f"--bandwidth={text}"])
    assert code == 1 and out == ""
    assert f"bandwidth: every-kth scheduling needs a unit fraction (1/k), got {text}" in err


@pytest.mark.parametrize("text", ["-1/2", "-0.5", "-5e-1", "-.5E+0"])
@pytest.mark.parametrize(
    "flag, message",
    [
        ("--bandwidth", "bandwidth must be in (0, 1], got -1/2"),
        ("--schnorr-fraction", "schnorr_fraction must be a real number in [0, 1], got -1/2"),
    ],
)
def test_plan_negative_value_after_a_space_reaches_the_range_check(capsys, flag, message, text):
    # The flag reader must read the value as the flag's argument, not as a flag.
    code, out, err = run_capture(capsys, ["plan", flag, text])
    assert code == 1 and out == ""
    assert err == f"qsafe: error: {message}\n"


# Fraction("1eN") builds 10**N: 1e10000000 took 12 s before it was refused.
HUGE_EXPONENTS = ["1e10000000", "1e-10000000", "1E+1_0000000", "1e4301"]


@pytest.mark.parametrize("text", HUGE_EXPONENTS)
@pytest.mark.parametrize("flag", ["--bandwidth", "--schnorr-fraction"])
def test_a_huge_decimal_exponent_is_refused_before_it_is_built(capsys, flag, text):
    began = time.perf_counter()
    code, out, err = run_capture(capsys, ["plan", flag, text])
    assert time.perf_counter() - began < 1
    assert code == 1 and out == ""
    first, *usage = err.splitlines()
    assert first == (
        f"qsafe: error: argument {flag}: decimal exponent beyond 4300 in magnitude: {text!r}"
    )
    assert not any(line.startswith("qsafe: error:") for line in usage)


@pytest.mark.parametrize("text", HUGE_EXPONENTS)
def test_a_snapshot_decimal_with_a_huge_exponent_is_refused(tmp_path, capsys, text):
    path = tmp_path / "snap.json"
    path.write_text(f'{{"total_utxos": 5, "schnorr_fraction": {text.replace("_", "")}}}')
    began = time.perf_counter()
    code, out, err = run_capture(capsys, ["plan", "--snapshot", str(path)])
    assert time.perf_counter() - began < 1
    assert code == 1 and out == ""
    assert err == (
        f"qsafe: error: snapshot {path}: decimal exponent beyond 4300 "
        f"in magnitude: {text.replace('_', '')!r}\n"
    )


@pytest.mark.parametrize(
    "text, shown",
    [("1.0", "1 (Fraction)"), ("1e3", "1000 (Fraction)"), ("1e4300", "about 1e4300 (Fraction)")],
)
def test_a_snapshot_total_that_is_a_decimal_is_shown_by_its_value(tmp_path, capsys, text, shown):
    # Not Python's repr of a Fraction, nor its int-digit limit message.
    path = tmp_path / "snap.json"
    path.write_text(f'{{"total_utxos": {text}}}')
    code, out, err = run_capture(capsys, ["plan", "--snapshot", str(path)])
    assert code == 1 and out == ""
    assert err == f"qsafe: error: snapshot {path}: total must be an integer, got {shown}\n"
    assert "Fraction(" not in err and "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--bandwidth", "1e4300"], "bandwidth must be in (0, 1], got about 1e4300"),
        (["--bandwidth=-1e-4300"], "bandwidth must be in (0, 1], got about -1e-4300"),
        (["--schnorr-fraction", "2e4300"],
         "schnorr_fraction must be a real number in [0, 1], got about 1e4300"),
    ],
)
def test_a_value_too_long_to_print_is_refused_by_its_magnitude(capsys, argv, message):
    # The largest accepted exponent gives a value with more digits than
    # str() converts; the range message must still be one line.
    code, out, err = run_capture(capsys, ["plan", *argv])
    assert code == 1 and out == ""
    assert err == f"qsafe: error: {message}\n"


@pytest.mark.parametrize(
    "snapshot, argv",
    [
        ('{"total_utxos": 1e4299}', []),
        ('{"total_utxos": 5, "schnorr_fraction": 2e4299}', []),
        ('{"total_utxos": -' + "9" * 4299 + "}", []),
        (None, ["--bandwidth", "1e4000"]),
        (None, ["--schedule", "k", "--bandwidth", "3e-4000"]),
        (None, ["--schedule", "fraction", "--bandwidth", "1e-4000"]),
    ],
    ids=["total", "schnorr-fraction", "negative-total", "bandwidth", "every-kth", "fraction"],
)
def test_a_value_of_thousands_of_digits_is_shown_by_its_magnitude(tmp_path, capsys, snapshot, argv):
    # Inside Python's int-digit limit, str() prints thousands of digits.
    if snapshot is not None:
        path = tmp_path / "snap.json"
        path.write_text(snapshot)
        argv = ["--snapshot", str(path), *argv]
    code, out, err = run_capture(capsys, ["plan", *argv])
    assert code == 1 and out == ""
    assert err.startswith("qsafe: error: ") and err.count("\n") == 1
    assert "about 1e" in err or "about -1e" in err
    assert len(err.encode()) < 200


def test_a_value_is_shown_whole_up_to_133_bits():
    assert _shown(2**133 - 1) == str(2**133 - 1) and len(str(2**133 - 1)) == 41
    assert (_shown(2**133), _shown(-(2**133))) == ("about 1e40", "about -1e40")
    assert _shown(Fraction(1, 2**133)) == "about 1e-40"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("text", ["1e-4300", "1e-4299"])
def test_a_cell_too_long_to_print_is_refused_by_its_column(capsys, text, fmt):
    # k = 10**4300 passes every check, but blocks_elapsed, about 10**4 k,
    # has more digits than str() converts, and duration_hours is past
    # the largest JSON number.
    began = time.perf_counter()
    code, out, err = run_capture(
        capsys, ["plan", "--schedule", "k", "--bandwidth", text, "--format", fmt]
    )
    assert time.perf_counter() - began < 1
    assert code == 1 and out == ""
    if fmt == "json":
        assert err == "qsafe: error: duration_hours: value too large for a JSON number\n"
    else:
        assert err == "qsafe: error: blocks_elapsed: value too long to print\n"


def test_snapshot_file_round_trip(tmp_path, capsys):
    path = tmp_path / "snap.json"
    path.write_text(
        json.dumps({"as_of": "2025-01", "total_utxos": 17_020, "schnorr_fraction": 0}),
        encoding="utf-8",
    )
    code, out, _ = run_capture(
        capsys, ["plan", "--snapshot", str(path), "--bandwidth", "1"]
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert row["ecdsa_hours"] == "0.17"  # one block
    assert row["schnorr_hours"] == "0.17"


def test_snapshot_missing_file_is_io_error(capsys):
    code, _, err = run_capture(capsys, ["plan", "--snapshot", "/no/such/file.json"])
    assert code == 2
    assert "file" in err.lower()


def test_snapshot_validation_errors(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert run_capture(capsys, ["plan", "--snapshot", str(bad_json)])[0] == 1

    no_total = tmp_path / "no_total.json"
    no_total.write_text("{}", encoding="utf-8")
    code, _, err = run_capture(capsys, ["plan", "--snapshot", str(no_total)])
    assert code == 1 and "total_utxos" in err

    negative = tmp_path / "negative.json"
    negative.write_text('{"total_utxos": -5}', encoding="utf-8")
    assert run_capture(capsys, ["plan", "--snapshot", str(negative)])[0] == 1

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]", encoding="utf-8")
    assert run_capture(capsys, ["plan", "--snapshot", str(not_object)])[0] == 1


@pytest.mark.parametrize(
    "body",
    [
        '{"total_utxos": 10.5}',
        '{"total_utxos": true}',
        '{"total_utxos": "10"}',
        '{"total_utxos": 10, "schnorr_fraction": NaN}',
        '{"total_utxos": 10, "schnorr_fraction": Infinity}',
        '{"total_utxos": 10, "schnorr_fraction": true}',
        '{"total_utxos": 10, "schnorr_fraction": "0.3"}',
        '{"total_utxos": 10, "schnorr_fraction": null}',
        '{"total_utxos": 10, "schnorr_fraction": 1.5}',
    ],
)
def test_snapshot_bad_values_exit_one(tmp_path, capsys, body):
    path = tmp_path / "snap.json"
    path.write_text(body, encoding="utf-8")
    code, out, err = run_capture(capsys, ["plan", "--snapshot", str(path)])
    assert code == 1 and out == ""
    assert err.startswith(f"qsafe: error: snapshot {path}: ")


def test_load_snapshot_reads_schnorr_fraction_exactly(tmp_path):
    path = tmp_path / "snap.json"
    path.write_text('{"total_utxos": 10, "schnorr_fraction": 0.3}', encoding="utf-8")
    assert load_snapshot(str(path)).schnorr_fraction == Fraction(3, 10)


def test_load_snapshot_defaults():
    assert load_snapshot(None) == DEFAULT_SNAPSHOT


def test_load_snapshot_fills_optional_fields(tmp_path):
    path = tmp_path / "snap.json"
    path.write_text('{"total_utxos": 10}', encoding="utf-8")
    snapshot = load_snapshot(str(path))
    assert snapshot.total == 10
    assert snapshot.schnorr_fraction == 0.0
    assert snapshot.as_of == "unspecified"


def test_attack_default_row(capsys):
    code, out, err = run_capture(capsys, ["attack", "--trials", "1000"])
    assert code == 0 and err == ""
    row = parse_csv(out)[0]
    assert row["mining"] == "memoryless"
    assert row["key_bits"] == "256"
    assert row["break_seconds"] == "65.536"
    assert float(row["p_closed_form"]) == math.exp(-65.536 / 600.0)
    assert row["trials"] == "1000"
    assert row["seed"] == str(DEFAULT_SEED)
    assert 0.0 <= float(row["p_estimate"]) <= 1.0


def test_attack_fixed_mining(capsys):
    _, out, _ = run_capture(
        capsys, ["attack", "--mining", "fixed", "--trials", "1000"]
    )
    row = parse_csv(out)[0]
    assert float(row["p_closed_form"]) == 1.0 - 65.536 / 600.0


def reference_estimate(mining, trials, seed=DEFAULT_SEED):
    """p_estimate of a one-row attack at 1000 Hz, from numpy's own
    Generator.random draw of stream 0 and the win rule: the 65.536 s
    break ends no later than the first block."""
    np = pytest.importorskip("numpy")
    key = np.random.SeedSequence((seed, 0)).generate_state(2, np.uint64)
    uniforms = np.random.Generator(np.random.Philox(key=key)).random(trials)
    if mining == "fixed":
        times = 600.0 - uniforms * 600.0
    else:
        times = -600.0 * np.log1p(-uniforms)
    return int(np.count_nonzero(65.536 <= times)) / trials


ATTACK_GOLDENS = {
    # argv: (mining, p_closed_form, the reference estimate)
    (): ("memoryless", "0.8965271816378702", 0.89673),
    ("--mining", "fixed", "--trials", "100000"): ("fixed", "0.8907733333333333", 0.88936),
}


@pytest.mark.parametrize("flags", ATTACK_GOLDENS, ids=["default", "fixed"])
def test_attack_goldens_are_numpys_draws(flags):
    mining, _, pinned = ATTACK_GOLDENS[flags]
    assert reference_estimate(mining, DEFAULT_TRIALS) == pinned


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("flags", ATTACK_GOLDENS, ids=["default", "fixed"])
def test_attack_golden(capsys, flags, fmt):
    mining, closed_form, estimate = ATTACK_GOLDENS[flags]
    std_error = math.sqrt(estimate * (1.0 - estimate) / DEFAULT_TRIALS)
    code, out, err = run_capture(capsys, ["attack", *flags, "--format", fmt])
    assert code == 0 and err == ""
    cells = [mining, "256", "1000.0", "0.0", "65.536", closed_form,
             repr(estimate), repr(std_error), "100000", "42"]
    columns = ["mining", "key_bits", "clock_hz", "overhead_seconds", "break_seconds",
               "p_closed_form", "p_estimate", "std_error", "trials", "seed"]
    if fmt == "csv":
        assert out == ",".join(columns) + "\n" + ",".join(cells) + "\n"
    elif fmt == "md":
        assert out == (
            "| " + " | ".join(columns) + " |\n"
            + "| " + " | ".join("---" for _ in columns) + " |\n"
            + "| " + " | ".join(cells) + " |\n"
        )
    else:
        assert out == (
            "[\n  {\n"
            f'    "mining": "{mining}",\n'
            '    "key_bits": 256,\n'
            '    "clock_hz": 1000.0,\n'
            '    "overhead_seconds": 0.0,\n'
            '    "break_seconds": 65.536,\n'
            f'    "p_closed_form": {closed_form},\n'
            f'    "p_estimate": {estimate!r},\n'
            f'    "std_error": {std_error!r},\n'
            '    "trials": 100000,\n'
            '    "seed": 42\n'
            "  }\n]\n"
        )


# A fresh interpreter in which numpy cannot be imported runs each argv
# given as JSON and acceptance criterion 5's two estimates.
BLOCKED_NUMPY_PROBE = """
import contextlib, io, json, sys

class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, BlockNumpy())
from qsafe import jit_attack_sim as sim
from qsafe.cli_report import run
outputs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run(argv) == 0
    outputs.append(out.getvalue())
for mining in (sim.FixedInterval(), sim.Memoryless()):
    scenario = sim.AttackScenario(sim.QuantumAttacker(256), mining)
    outputs.append(repr(sim.success_probability_monte_carlo(scenario, 1_000_000, seed=42)))
assert "numpy" not in sys.modules
print(json.dumps(outputs))
"""


def test_attack_without_numpy_prints_what_numpy_draws(capsys):
    pytest.importorskip("numpy")  # so that this process draws through numpy
    argvs = [["attack", *flags, "--format", fmt] for flags in ATTACK_GOLDENS for fmt in FORMATS]
    argvs.append(["attack", "--mining", "fixed", "--clock-hz", "1000", "--clock-hz", "1e6",
                  "--trials", "1000000"])  # a README sample
    # 524288 trials (_PURE_TRIALS) is the most an attack counts in pure
    # Python while numpy is not loaded.  Both kernels must print the same
    # bytes for one row from trial 0 to a whole block, for two rows of
    # 262141 trials, which ends inside a block, and for ten rows of 50000
    # trials, each shorter than a chunk and so drawn by the caller alone.
    clocks = "300 500 700 1000 1500 2000 3000 5000 10000 30000".split()
    for flags in (["524288"], ["262141", "--clock-hz=300", "--clock-hz=3000", "--mining=fixed"],
                  ["50000", *(f"--clock-hz={hz}" for hz in clocks)]):
        argvs.append(["attack", "--trials", *flags, "--format", "json"])
    result = subprocess.run(
        [sys.executable, "-c", BLOCKED_NUMPY_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, check=True,
    )
    expected = []
    for argv in argvs:
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        expected.append(out)
    for mining in (jit_attack_sim.FixedInterval(), jit_attack_sim.Memoryless()):
        scenario = jit_attack_sim.AttackScenario(jit_attack_sim.QuantumAttacker(256), mining)
        estimate = jit_attack_sim.success_probability_monte_carlo(scenario, 1_000_000, seed=42)
        expected.append(repr(estimate))
    assert json.loads(result.stdout) == expected


@pytest.mark.parametrize("fmt", FORMATS)
def test_attack_prints_a_negative_zero_overhead_as_zero(capsys, fmt):
    code, out, _ = run_capture(
        capsys, ["attack", "--overhead", "-0", "--trials", "10", "--format", fmt]
    )
    _, positive, _ = run_capture(
        capsys, ["attack", "--overhead", "0", "--trials", "10", "--format", fmt]
    )
    assert code == 0 and out == positive
    assert "-0" not in out


def test_attack_clock_sweep_rows(capsys):
    _, out, _ = run_capture(
        capsys,
        ["attack", "--trials", "500", "--clock-hz", "1000", "--clock-hz", "1e6"],
    )
    rows = parse_csv(out)
    assert [row["clock_hz"] for row in rows] == ["1000.0", "1000000.0"]
    assert rows[1]["break_seconds"] == "0.065536"


def test_attack_repeat_runs_are_identical(capsys):
    argv = ["attack", "--trials", "2000", "--seed", "11"]
    _, first, _ = run_capture(capsys, argv)
    _, second, _ = run_capture(capsys, argv)
    assert first == second


@pytest.mark.parametrize("fmt", ["csv", "json", "md"])
@pytest.mark.parametrize("mining", ["fixed", "memoryless"])
def test_attack_output_is_identical_at_one_and_two_workers(monkeypatch, capsys, fmt, mining):
    pytest.importorskip("numpy")  # loaded, so that workers draw every row
    # 100_000 trials a row is enough for two workers to share each row.
    argv = ["attack", "--mining", mining, "--clock-hz", "1000", "--clock-hz", "300",
            "--seed", "5", "--format", fmt]
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(jit_attack_sim, "_usable_cpus", lambda: cpus)
        assert jit_attack_sim._workers(0, DEFAULT_TRIALS)[0] == cpus
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_attack_seed_flag_changes_estimate(capsys):
    _, one, _ = run_capture(capsys, ["attack", "--trials", "2000", "--seed", "1"])
    _, two, _ = run_capture(capsys, ["attack", "--trials", "2000", "--seed", "2"])
    assert one != two


def test_attack_ignores_the_seed_environment_variable(monkeypatch, capsys):
    # --seed is the only seed source; a QSAFE_SEED left set changes nothing.
    monkeypatch.setenv("QSAFE_SEED", "7")
    _, out, _ = run_capture(capsys, ["attack", "--trials", "100"])
    assert parse_csv(out)[0]["seed"] == str(DEFAULT_SEED) == "42"


@pytest.mark.parametrize("seed", [str(2**128), "-1"])
def test_attack_refuses_a_seed_outside_128_bits(capsys, seed):
    argv = ["attack", "--clock-hz", "100", "--trials", "100", "--seed", seed]
    assert run_capture(capsys, argv) == (
        1, "", f"qsafe: error: seed must be in [0, 2**128), got {seed}\n"
    )


def test_attack_validation(capsys):
    assert run_capture(capsys, ["attack", "--trials", "0"]) == (
        1, "", "qsafe: error: trials must be >= 1, got 0\n"
    )
    assert run_capture(capsys, ["attack", "--trials", "-5"])[0] == 1
    assert run_capture(capsys, ["attack", "--clock-hz", "0"])[0] == 1
    assert run_capture(capsys, ["attack", "--key-bits", "-1"])[0] == 1
    assert run_capture(capsys, ["attack", "--overhead", "-1"])[0] == 1


LONG = "9" * 4000  # inside Python's int-digit limit, so str() prints it whole


@pytest.mark.parametrize(
    "flags",
    [["--seed", LONG], ["--seed", "-" + LONG], ["--trials", "-" + LONG], ["--key-bits", "-" + LONG]],
    ids=["seed", "negative-seed", "trials", "key-bits"],
)
def test_attack_shows_a_long_value_by_its_magnitude(capsys, flags):
    code, out, err = run_capture(capsys, ["attack", *flags])
    assert code == 1 and out == ""
    assert err.startswith("qsafe: error: ") and err.count("\n") == 1
    assert "about " in err
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "flags",
    [
        ["--clock-hz", "nan"],
        ["--overhead", "nan"],
        ["--clock-hz", "inf"],
        ["--overhead", "inf"],
        ["--clock-hz", "1000", "--clock-hz", "nan"],
        # Finite flags whose break time is not: key_bits**2 overflows a
        # float, or the quotient is inf.
        ["--key-bits", str(10**200)],
        ["--clock-hz", "5e-324", "--mining", "fixed"],
        ["--clock-hz", "1000", "--clock-hz", "5e-324"],
    ],
)
def test_attack_rejects_non_finite_flags(capsys, flags):
    code, out, err = run_capture(capsys, ["attack", "--trials", "100", *flags])
    assert code == 1 and out == ""
    assert err.startswith("qsafe: error:") and err.count("\n") == 1


def test_format_json(capsys):
    _, out, _ = run_capture(capsys, ["capacity", "--format", "json"])
    payload = json.loads(out)
    assert payload[0]["utxos_per_block"] == 17_020


def test_format_markdown(capsys):
    _, out, _ = run_capture(capsys, ["capacity", "--format", "md"])
    assert out.startswith("| strategy |")


def test_out_writes_file_and_silences_stdout(tmp_path, capsys):
    destination = tmp_path / "capacity.csv"
    code, out, _ = run_capture(capsys, ["capacity", "--out", str(destination)])
    assert code == 0
    assert out == ""
    _, stdout_text, _ = run_capture(capsys, ["capacity"])
    assert destination.read_text(encoding="utf-8") == stdout_text


# Every subcommand path, as the benchmark's cold CLI workload runs them.
OUT_COMMANDS = {
    "capacity": ["capacity"],
    "plan": ["plan"],
    "plan-mixed": ["plan", "--schnorr-fraction", "0.3"],
    "plan-schedule": ["plan", "--schedule", "fraction", "--bandwidth", "1/2"],
    "impact": ["impact"],
    "attack": ["attack", "--trials", "2000"],
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_file_bytes_equal_stdout_bytes(tmp_path, capsysbinary, command, fmt):
    argv = OUT_COMMANDS[command] + ["--format", fmt]
    destination = tmp_path / f"report.{fmt}"
    assert run(argv + ["--out", str(destination)]) == 0
    assert capsysbinary.readouterr() == (b"", b"")
    assert run(argv) == 0
    stdout = capsysbinary.readouterr().out
    assert stdout and destination.read_bytes() == stdout


def test_out_unwritable_is_io_error(capsys):
    code, _, err = run_capture(capsys, ["capacity", "--out", "/no/dir/x.csv"])
    assert code == 2
    assert err != ""


def test_unknown_subcommand(capsys):
    assert run_capture(capsys, ["bogus"])[0] == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_each_subcommand_help_lists_every_flag_in_its_table_entry(capsys, command, flag):
    code, out, err = run_capture(capsys, [command, flag])
    assert (code, err) == (0, "")
    usage, blank, *lines = out.splitlines()
    assert usage.startswith(f"usage: qsafe {command} [-h] ") and blank == ""
    listed = [line.split()[0] for line in lines]
    assert listed == list(_COMMANDS[command][2])
    for name, (_, _, _, text) in _COMMANDS[command][2].items():
        assert f"[{name}" in usage
        assert text in lines[listed.index(name)]


LONG_TEXT = "x" * 5000
NINES = "9" * 5000  # past Python's int-digit limit


@pytest.mark.parametrize(
    "argv, message",
    [
        (["plan", "--bandwidth", LONG_TEXT], "argument --bandwidth: not a number: 'xxx"),
        (["plan", "--schnorr-fraction", LONG_TEXT],
         "argument --schnorr-fraction: not a number: 'xxx"),
        (["attack", "--clock-hz", LONG_TEXT], "argument --clock-hz: invalid float value: 'xxx"),
        (["attack", "--overhead", LONG_TEXT], "argument --overhead: invalid float value: 'xxx"),
        (["attack", "--seed", LONG_TEXT], "argument --seed: invalid int value: 'xxx"),
        (["attack", "--trials", LONG_TEXT], "argument --trials: invalid int value: 'xxx"),
        (["attack", "--key-bits", LONG_TEXT], "argument --key-bits: invalid int value: 'xxx"),
        (["attack", "--mining", LONG_TEXT], "argument --mining: invalid choice: 'xxx"),
        (["attack", "--format", LONG_TEXT], "argument --format: invalid choice: 'xxx"),
        (["attack", "--" + LONG_TEXT], "unrecognized arguments: --xxx"),
        ([LONG_TEXT], "argument command: invalid choice: 'xxx"),
        # Well-formed numbers that only Python's int-digit limit refuses.
        (["plan", "--bandwidth", "1/" + NINES], "argument --bandwidth: too many digits: '1/999"),
        (["attack", "--trials", NINES], "argument --trials: too many digits: '999"),
    ],
    ids=["bandwidth", "schnorr-fraction", "clock-hz", "overhead", "seed", "trials", "key-bits",
         "mining", "format", "unknown-flag", "unknown-subcommand", "bandwidth-digits",
         "trials-digits"],
)
def test_a_long_flag_text_is_echoed_by_its_start_and_length(capsys, argv, message):
    code, out, err = run_capture(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith(f"qsafe: error: {message}")
    assert f"... ({len(argv[-1])} characters)" in err
    assert sum(line.startswith("qsafe: error:") for line in err.splitlines()) == 1
    assert max(len(line.encode()) for line in err.splitlines()) < 200


@pytest.mark.parametrize("fields", ["", "-", "5, \"schnorr_fraction\": "],
                         ids=["total", "negative-total", "schnorr-fraction"])
def test_a_snapshot_integer_past_the_digit_limit_has_too_many_digits(tmp_path, capsys, fields):
    path = tmp_path / "snap.json"
    path.write_text(f'{{"total_utxos": {fields}{NINES}}}')
    code, out, err = run_capture(capsys, ["plan", "--snapshot", str(path)])
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith(f"qsafe: error: snapshot {path}: too many digits: ")
    assert "set_int_max_str_digits" not in err


# A cold command exits through main(), which freezes the collector
# first; its exit code, stdout, stderr and the files it writes must
# still be run()'s.
COLD_EXITS = {
    "capacity": (["capacity"], 0),
    "help": (["--help"], 0),
    "attack-help": (["attack", "--help"], 0),
    "plan-h": (["plan", "-h"], 0),
    "bandwidth-2": (["plan", "--bandwidth", "2"], 1),
    "bandwidth-0": (["plan", "--bandwidth", "0"], 1),
    "bandwidth-long": (["plan", "--bandwidth", LONG_TEXT], 1),
    "missing-snapshot": (["plan", "--snapshot", "{tmp}/nope"], 2),
    "out-missing-dir": (["capacity", "--out", "{tmp}/no/dir/x.csv"], 2),
    "impact-out": (["impact", "--format", "md", "--out", "{tmp}/i.md"], 0),
    "deep-snapshot": (["plan", "--snapshot", "{tmp}/deep.json"], 1),
    "digits-snapshot": (["plan", "--snapshot", "{tmp}/digits.json"], 1),
    "long-seed": (["attack", "--seed", LONG], 1),
    "long-trials": (["attack", "--trials", "-" + LONG], 1),
    "long-key-bits": (["attack", "--key-bits", "-" + LONG], 1),
    # Past _PURE_TRIALS: numpy draws it if it is installed, pure Python if not.
    "attack-1e6": (["attack", "--trials", "1000000"], 0),
}
# Nesting too deep for json, and an integer past Python's digit limit.
COLD_INPUTS = {"deep.json": "[" * 200_000, "digits.json": '{"total_utxos": ' + NINES + "}"}


@pytest.mark.parametrize("command", COLD_EXITS)
def test_a_cold_command_exits_as_run_does(tmp_path, capsys, command):
    template, code = COLD_EXITS[command]
    argv = [arg.format(tmp=tmp_path) for arg in template]
    for name, text in COLD_INPUTS.items():
        (tmp_path / name).write_text(text)

    def written():
        return {p: p.read_bytes() for p in tmp_path.iterdir() if p.name not in COLD_INPUTS}

    cold = subprocess.run([sys.executable, "-m", "qsafe", *argv], capture_output=True, text=True)
    cold_files = written()
    for path in cold_files:
        path.unlink()
    assert (cold.returncode, cold.stdout, cold.stderr) == run_capture(capsys, argv)
    assert written() == cold_files
    assert cold.returncode == code


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity"],
        ["plan", "--snapshot", "{tmp}/snapshot.json", "--out", "{tmp}/plan.csv"],
        ["impact"],
        ["attack"],
        ["--help"],
    ],
    ids=["capacity", "plan-snapshot-out", "impact", "attack", "help"],
)
def test_a_cold_command_in_dev_mode_warns_of_nothing(tmp_path, argv):
    # main() freezes the collector before it exits, so a file that a run
    # leaks is never finalised at exit; dev mode must catch it during the
    # run.  A leak's ResourceWarning, even as an error, only prints, so
    # stderr must stay empty.
    snapshot = tmp_path / "snapshot.json"
    snapshot.write_text('{"total_utxos": 1000000, "schnorr_fraction": 0.25}', encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "qsafe",
         *(arg.format(tmp=tmp_path) for arg in argv)],
        capture_output=True, text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")


def test_run_leaves_the_collector_unfrozen():
    # Compared with the count at start-up, which is not 0 on every
    # interpreter: a bare 3.12.1 starts with 375 objects frozen.
    probe = (
        "import contextlib, gc, io\n"
        "before = gc.get_freeze_count()\n"
        "from qsafe.cli_report import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert run(['capacity']) == 0\n"
        "print(before, gc.get_freeze_count())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    before, after = result.stdout.split()
    assert after == before


def test_a_run_leaves_nothing_to_finalise(tmp_path, monkeypatch):
    # A frozen exit finalises nothing, so a file a run leaked would go
    # unreported; it must be closed before run() returns.
    snapshot = tmp_path / "snapshot.json"
    snapshot.write_text('{"total_utxos": 1000}', encoding="utf-8")
    argv = ["plan", "--snapshot", str(snapshot), "--out", str(tmp_path / "plan.csv")]
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", lambda hook: unraisable.append(hook.exc_value))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert run(argv) == 0
        gc.collect()
    assert unraisable == []


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_2_with_one_line(unbuffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        result = subprocess.run(
            [sys.executable, "-m", "qsafe", "attack", "--trials", "10", "--format", "md"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr.startswith("qsafe: error: ")
    assert result.stderr.count("\n") == 1
