"""Tests of the benchmark harness itself: span arithmetic, the tail
percentile, the import-time split, input generation, and every oracle
catching a deliberately wrong row or byte.  Standard library only, and
fast: nothing here starts qsafe or a subprocess.

    python -m pytest -q perfbench
"""

import json
import math
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import inputs
import measure
import oracles
import tracing

HERE = Path(__file__).resolve().parent


# --- spans ----------------------------------------------------------------


def test_self_time_subtracts_children_and_grandchildren_once():
    # parent [0, 10] > a [1, 3], b [4, 8] > c [5, 6]
    starts, ends, parents = [0, 1, 4, 5], [10, 3, 8, 6], [-1, 0, 0, 2]
    assert tracing.self_times(starts, ends, parents) == [4, 2, 3, 1]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Children [1, 5] and [3, 7] cover [1, 7]; [9, 12] is clipped to [9, 10].
    starts, ends, parents = [0, 1, 3, 9], [10, 5, 7, 12], [-1, 0, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == 10 - 6 - 1


def test_install_records_nested_spans_counts_and_restores(monkeypatch):
    home = types.ModuleType("fakeq.block_packer")
    home.mega_capacity = lambda per_input, overhead: (4_000_000 - overhead) // per_input
    home.per_block_capacity = lambda scheme: home.mega_capacity(235, 210)
    user = types.ModuleType("fakeq.migration_planner")
    user.per_block_capacity = home.per_block_capacity
    originals = (home.mega_capacity, home.per_block_capacity)
    for module in (types.ModuleType("fakeq"), home, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, package="fakeq")
    assert user.per_block_capacity("ecdsa") == 17_020
    uninstall()

    assert tracer.names == ["block_packer.per_block_capacity", "block_packer.mega_capacity"]
    assert tracer.parents == [-1, 0]
    assert tracer.layer_metrics()["block_packer.calls"] == 2
    assert (home.mega_capacity, home.per_block_capacity) == originals
    assert user.per_block_capacity is originals[1]


def test_trial_and_block_counters_read_arguments_and_results():
    tracer = tracing.Tracer()
    race = tracer.wrap("jit_attack_sim.race_win_count", lambda s, seed, start, stop, **k: 0)
    race(None, 1, 10, 110)
    race(None, 1, start=0, stop=5)
    schedule = tracer.wrap("migration_planner.throttled_schedule",
                           lambda *a: types.SimpleNamespace(allocations=(0, 0, 7)))
    schedule()
    metrics = tracer.layer_metrics()
    assert metrics["jit_attack_sim.trials"] == 105
    assert metrics["jit_attack_sim.calls"] == 2
    assert metrics["migration_planner.blocks_enumerated"] == 3


# --- statistics -----------------------------------------------------------


@pytest.mark.parametrize("n, percentile", [(11, 100 / 11), (20, 50.0), (100, 90.0),
                                           (40_000, 99.975)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, percentile):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    value, got_percentile, beyond = measure.tail(samples)
    assert value == n - 10
    assert sum(1 for s in samples if s > value) == beyond == 10
    assert math.isclose(got_percentile, percentile)


def test_tail_below_eleven_samples_is_the_maximum_with_none_beyond():
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


# --- import-time split ----------------------------------------------------

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   qsafe.weight_model
import time:      1000 |       1000 |       numpy.core
import time:      2000 |       3000 |     numpy
import time:       500 |       3500 |   qsafe.jit_attack_sim
import time:        10 |       4600 | qsafe
import time:         1 |          1 | qsafe.jit_attack_sim
"""


def test_import_split_takes_the_first_line_and_keeps_nested_numpy_once():
    split = tracing.import_split(tracing.parse_importtime(IMPORTTIME))
    assert split["weight_model.import_s"] == pytest.approx(100e-6)
    assert split["jit_attack_sim.import_s"] == pytest.approx(3500e-6)
    assert split["cli_report.import_s"] == 0.0


def test_import_split_charges_a_numpy_imported_elsewhere_to_jit_attack_sim():
    lazy = "\n".join(["import time:       500 |        500 |   qsafe.jit_attack_sim",
                      "import time:      2000 |       3000 | numpy"])
    split = tracing.import_split(tracing.parse_importtime(lazy))
    assert split["jit_attack_sim.import_s"] == pytest.approx(3500e-6)


# --- inputs ---------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_inputs_repeat_per_seed_and_keep_their_size(workload):
    generate = inputs.GENERATORS[workload]
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)
    shape = {key: len(value) if isinstance(value, (list, dict)) else None
             for key, value in generate(7).items()}
    assert shape == {key: len(value) if isinstance(value, (list, dict)) else None
                     for key, value in generate(8).items()}


def test_mc_deep_chunks_partition_the_row():
    data = inputs.mc_deep(3)
    bounds = [b for chunk in data["chunks"] for b in chunk]
    assert bounds[0] == 0 and bounds[-1] == data["trials"]
    assert all(a < b for a, b in data["chunks"])
    assert all(prev[1] == nxt[0] for prev, nxt in zip(data["chunks"], data["chunks"][1:]))


def test_cli_sequence_covers_every_command_and_format_with_one_file_and_twin():
    sequence = inputs.cli_sequence(5)
    invocations = sequence["invocations"]
    assert {(i["command"], i["format"]) for i in invocations} == {
        (c, f) for c in inputs.CLI_COMMANDS for f in inputs.FORMATS}
    for command in inputs.CLI_COMMANDS:
        assert sum(i["to_file"] for i in invocations if i["command"] == command) == 1
    twin, = [i for i in invocations if i["twin"]]
    written, = [i for i in invocations if i["command"] == "attack" and i["to_file"]]
    assert twin["args"] == written["args"]
    assert str(sequence["attack_seed"]) in twin["args"]


# --- oracles --------------------------------------------------------------


def _md(csv_text):
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    lines = ["| " + " | ".join(rows[0]) + " |", "| " + " | ".join("---" for _ in rows[0]) + " |"]
    return "\n".join(lines + ["| " + " | ".join(r) + " |" for r in rows[1:]]) + "\n"


def test_pinned_tables_pass_and_one_wrong_byte_fails():
    assert oracles.check_cli_output("capacity", "csv", oracles.CAPACITY_CSV, 0) == []
    assert oracles.check_cli_output("plan", "csv", oracles.PLAN_CSV, 0) == []
    assert oracles.check_cli_output("capacity", "csv",
                                    oracles.CAPACITY_CSV.replace("17020", "17021"), 0)
    assert oracles.check_cli_output("plan", "csv", oracles.PLAN_CSV.replace("\n", "\r\n"), 0)


def test_markdown_tables_are_checked_cell_by_cell():
    assert oracles.check_cli_output("plan", "md", _md(oracles.PLAN_CSV), 0) == []
    wrong = _md(oracles.PLAN_CSV.replace("5228.00", "5228.01"))
    assert oracles.check_cli_output("plan", "md", wrong, 0)
    assert oracles.check_cli_output("plan", "md", oracles.PLAN_CSV, 0)  # csv is not md


IMPACT = [  # published per-scheme weights and transactions per block
    {"scheme": "crystals-dilithium", "signature_bits": 19360, "signature_ratio": 37.8125,
     "tx_weight_wu": 2801, "tx_per_block": 1428, "weight_slowdown": 8988 / 1428},
    {"scheme": "falcon", "signature_bits": 5328, "signature_ratio": 10.40625,
     "tx_weight_wu": 1047, "tx_per_block": 3820, "weight_slowdown": 8988 / 3820},
    {"scheme": "sphincs-plus", "signature_bits": 62848, "signature_ratio": 122.75,
     "tx_weight_wu": 8237, "tx_per_block": 485, "weight_slowdown": 8988 / 485},
]


def test_impact_json_passes_and_a_wrong_row_fails():
    assert oracles.check_cli_output("impact", "json", json.dumps(IMPACT, indent=2), 0) == []
    wrong = [dict(row) for row in IMPACT]
    wrong[1]["tx_per_block"] = 3821
    problems = oracles.check_cli_output("impact", "json", json.dumps(wrong), 0)
    assert len(problems) == 1 and "tx_per_block" in problems[0]


def _attack_csv(run_seed, **change):
    p = math.exp(-65.536 / 600)
    row = {"mining": "memoryless", "key_bits": 256, "clock_hz": 1000.0,
           "overhead_seconds": 0.0, "break_seconds": 65.536, "p_closed_form": p,
           "p_estimate": 0.89652, "std_error": math.sqrt(0.89652 * 0.10348 / 100_000),
           "trials": 100_000, "seed": run_seed, **change}
    return ",".join(row) + "\n" + ",".join(str(v) for v in row.values()) + "\n"


def test_attack_output_checks_closed_forms_estimate_and_seed():
    assert oracles.check_cli_output("attack", "csv", _attack_csv(9), 9) == []
    p = math.exp(-65.536 / 600)
    for change in ({"p_closed_form": math.nextafter(p, 1)}, {"break_seconds": 65.5361},
                   {"p_estimate": p - 0.01}, {"seed": 10}, {"trials": 100_001}):
        assert oracles.check_cli_output("attack", "csv", _attack_csv(9, **change), 9), change


def test_attack_formats_must_agree_and_std_error_must_match():
    good = _attack_csv(9)
    assert oracles.check_attack_consistency({"csv": good, "md": _md(good)}) == []
    other = _attack_csv(9, p_estimate=0.8966, std_error=math.sqrt(0.8966 * 0.1034 / 100_000))
    assert oracles.check_attack_consistency({"csv": good, "md": _md(other)})
    assert oracles.check_attack_consistency({"csv": _attack_csv(9, std_error=0.002)})


def test_plan_schedule_and_mixed_outputs():
    columns, rows, round_to = oracles.expected_plan_schedule()
    text = ",".join(columns) + "\n" + "".join(
        ",".join([r["scheme"], "fraction", "0.5", str(r["upgrade_blocks"]),
                  str(r["blocks_elapsed"]), oracles.half_up(r["duration_hours"]),
                  oracles.half_up(r["duration_hours"] / 24)]) + "\n" for r in rows)
    assert "ecdsa-segwit,fraction,0.5,21937,21937,3656.17,152.34" in text
    assert oracles.check_cli_output("plan-schedule", "csv", text, 0) == []
    assert oracles.check_cli_output("plan-schedule", "csv", text.replace("21937", "21936"), 0)

    header, *body = oracles.PLAN_CSV.strip().splitlines()
    mixed = [header + ",mixed_hours,mixed_days"]
    mixed += [line + ",1671.82,69.66" for line in body[:3]] + [body[3] + ",1671.82,69.66"]
    problems = oracles.check_cli_output("plan-mixed", "csv", "\n".join(mixed) + "\n", 0)
    # 1671.82 h lies between the pure bounds only at full bandwidth.
    assert len(problems) == 6 and all("mixed" in p for p in problems)


def test_monte_carlo_rows():
    n = 2**23
    break_s = 256**2 / 1234.5
    p = math.exp(-break_s / 600)
    row = {"clock_hz": 1234.5, "break_seconds": break_s, "p_closed_form": p,
           "p_estimate": p, "std_error": math.sqrt(p * (1 - p) / n)}
    assert oracles.check_mc_row(row, "memoryless", 1234.5, n) == []
    assert oracles.check_mc_row(row, "fixed", 1234.5, n)  # wrong closed form for the model
    assert oracles.check_mc_row({**row, "p_estimate": p + 0.01}, "memoryless", 1234.5, n)
    assert oracles.check_mc_row({**row, "clock_hz": 1234.0}, "memoryless", 1234.5, n)


def test_monte_carlo_tolerance_admits_chance_and_rejects_bias():
    # A 1,000-trial row at p = 1e-4 may see a few wins by chance.
    assert oracles.mc_tolerance(1e-4, 1000) > 5 / 1000
    # A 2**23-trial row at p = 1/2 is held to about 0.2%.
    assert oracles.mc_tolerance(0.5, 2**23) < 2e-3


def test_chunk_merge_must_sum_exactly():
    n = 2**23
    assert oracles.check_chunk_merge(4_000_000 / n, n, [(0, 5), (5, n)], [1, 3_999_999]) == []
    assert oracles.check_chunk_merge(4_000_000 / n, n, [(0, 5), (5, n)], [1, 3_999_998])


def test_schedules_grid_and_weights():
    assert oracles.check_schedule({"blocks_elapsed": 109_690, "upgrade_blocks": 10_969,
                                   "total_upgraded": oracles.UTXO_TOTAL,
                                   "duration_hours": Fraction(109_690, 6)},
                                  "ecdsa-segwit", "k", 10) == []
    assert oracles.check_schedule({"blocks_elapsed": 109_689}, "ecdsa-segwit", "k", 10)

    cells = {bw: (oracles.lower_bound_hours("ecdsa-segwit", bw),
                  oracles.lower_bound_hours("schnorr-taproot", bw),
                  oracles.lower_bound_hours("schnorr-taproot", bw) + 1)
             for bw in oracles.DEFAULT_BANDWIDTHS}
    assert oracles.check_grid(cells, Fraction(1, 2)) == []
    cells[Fraction(1)] = (*cells[Fraction(1)][:2], Fraction(1))
    assert oracles.check_grid(cells, Fraction(1, 2))

    assert oracles.check_weight(3_999_910, "ecdsa-segwit", 17_020) == []
    assert oracles.check_weight(4_000_145, "ecdsa-segwit", 17_021) == []
    assert oracles.check_weight(4_000_021, "schnorr-taproot", 23_808) == []
    assert oracles.check_weight(3_999_911, "ecdsa-segwit", 17_020)


# --- BENCHMARK.json -------------------------------------------------------


def test_benchmark_json_matches_the_metrics_the_harness_prints():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(inputs.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert spec["paths"] == ["perfbench"]
