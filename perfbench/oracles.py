"""Expected outputs, computed without the code under test.

Nothing here imports qsafe or numpy.  The reference numbers are the
published ones (README tables, the 445-WU canonical transaction, the
per-input and overhead weights of the two mega layouts, the signature
sizes); everything else is derived from them with integer and
``Fraction`` arithmetic written out here.  Each check returns a list of
problems, empty when the output is right.
"""

import csv
import io
import json
import math
from fractions import Fraction

BLOCK_WEIGHT = 4_000_000
BLOCKTIME_S = 600
UTXO_TOTAL = 186_676_874
CANONICAL_TX_WU = 445
ECDSA_BITS = 512

# scheme -> (per-input WU, fixed overhead WU, inputs per block)
MEGA = {
    "ecdsa-segwit": (235, 210, 17_020),
    "schnorr-taproot": (168, 277, 23_807),
}
ONE_PER_TX_CAPACITY = 8_988

SIGNATURE_BITS = {
    "crystals-dilithium": 19_360,
    "falcon": 5_328,
    "sphincs-plus": 62_848,
}

# Pinned from the README.
CAPACITY_CSV = (
    "strategy,per_input_wu,overhead_wu,utxos_per_block\n"
    "ecdsa-mega,235,210,17020\n"
    "schnorr-mega,168,277,23807\n"
    "one-per-tx,445,0,8988\n"
)
PLAN_CSV = (
    "bandwidth,ecdsa_hours,ecdsa_days,schnorr_hours,schnorr_days\n"
    "0.25,7312.67,304.69,5228.00,217.83\n"
    "0.5,3656.33,152.35,2614.00,108.92\n"
    "0.75,2437.56,101.56,1742.67,72.61\n"
    "1.0,1828.17,76.17,1307.00,54.46\n"
)
DEFAULT_BANDWIDTHS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))

# Probability that one Monte Carlo row falls outside its tolerance by
# chance.  Rows are deterministic per seed, so a false alarm would
# repeat; at 1e-12 per row it is not expected in any number of runs.
MC_FALSE_ALARM = 1e-12


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def half_up(value, decimals: int = 2) -> str:
    """Non-negative ``value`` printed with halves rounded up."""
    scaled = Fraction(value) * 10**decimals
    units = math.floor(scaled + Fraction(1, 2))
    whole, frac = divmod(units, 10**decimals)
    return f"{whole}.{frac:0{decimals}d}"


def hours(blocks: int, bandwidth=Fraction(1)) -> Fraction:
    return Fraction(blocks * BLOCKTIME_S, 3600) / Fraction(bandwidth)


def lower_bound_hours(scheme: str, bandwidth, total: int = UTXO_TOTAL) -> Fraction:
    return hours(ceil_div(total, MEGA[scheme][2]), bandwidth)


def schedule_totals(scheme: str, style: str, value, total: int = UTXO_TOTAL) -> dict:
    """Blocks elapsed and upgrade blocks of a throttled schedule, in closed form."""
    capacity = MEGA[scheme][2]
    if style == "k":
        upgrade_blocks = ceil_div(total, capacity)
        blocks = value * upgrade_blocks
    else:
        share = math.floor(capacity * Fraction(value))
        blocks = upgrade_blocks = ceil_div(total, share)
    return {"blocks_elapsed": blocks, "upgrade_blocks": upgrade_blocks,
            "total_upgraded": total, "duration_hours": hours(blocks)}


def mega_weight(scheme: str, n_inputs: int) -> int:
    per_input, overhead, _ = MEGA[scheme]
    return overhead + per_input * n_inputs


def mc_tolerance(p: float, n: int, false_alarm: float = MC_FALSE_ALARM) -> float:
    """Largest |estimate - p| a correct n-trial estimate reaches with
    probability ``false_alarm`` (two-sided Bernstein bound)."""
    log_term = math.log(2 / false_alarm)
    spread = log_term / 3 + math.sqrt(log_term**2 / 9 + 2 * n * p * (1 - p) * log_term)
    return spread / n


def closed_form(mining: str, break_s: float, blocktime: float = 600.0) -> float:
    if mining == "fixed":
        return max(0.0, 1.0 - break_s / blocktime)
    return math.exp(-break_s / blocktime)


def check_mc_row(row: dict, mining: str, clock_hz: float, n: int, key_bits: int = 256) -> list:
    """One Monte Carlo row: exact closed forms, and the estimate within tolerance."""
    problems = []
    break_s = key_bits**2 / clock_hz
    p = closed_form(mining, break_s)
    if row["clock_hz"] != clock_hz:
        problems.append(f"clock_hz {row['clock_hz']} != {clock_hz}")
    if row["break_seconds"] != break_s:
        problems.append(f"break_seconds {row['break_seconds']} != {break_s} at {clock_hz} Hz")
    if row["p_closed_form"] != p:
        problems.append(f"p_closed_form {row['p_closed_form']} != {p} at {clock_hz} Hz")
    estimate = row["p_estimate"]
    if not abs(estimate - p) <= mc_tolerance(p, n):
        problems.append(f"p_estimate {estimate} too far from {p} at {clock_hz} Hz, n={n}")
    std_error = math.sqrt(estimate * (1.0 - estimate) / n)
    if not math.isclose(row["std_error"], std_error, rel_tol=1e-12, abs_tol=1e-300):
        problems.append(f"std_error {row['std_error']} != {std_error} at {clock_hz} Hz")
    return problems


def check_chunk_merge(whole_estimate: float, n: int, chunks: list, counts: list) -> list:
    """Win counts of disjoint chunks sum exactly to the whole range's count.

    ``n`` must be a power of two, so ``whole_estimate * n`` is exact.
    """
    whole = whole_estimate * n
    if sum(counts) != whole:
        return [f"chunks {chunks} sum to {sum(counts)} wins, the whole range has {whole}"]
    return []


def check_schedule(got: dict, scheme: str, style: str, value) -> list:
    expected = schedule_totals(scheme, style, value)
    return [f"{scheme} {style}={value}: {key} {got.get(key)} != {want}"
            for key, want in expected.items() if got.get(key) != want]


def check_grid(cells: dict, mixed_fraction) -> list:
    """``cells`` maps bandwidth -> (ecdsa hours, schnorr hours, mixed hours).

    The mixed value is only bracketed by the two pure bounds: the model
    of a mixed pool is an open question, and any sound one lies between.
    """
    problems = []
    for bandwidth in DEFAULT_BANDWIDTHS:
        ecdsa, schnorr, mixed = cells[bandwidth]
        want_e = lower_bound_hours("ecdsa-segwit", bandwidth)
        want_s = lower_bound_hours("schnorr-taproot", bandwidth)
        if ecdsa != want_e:
            problems.append(f"ecdsa hours at {bandwidth}: {ecdsa} != {want_e}")
        if schnorr != want_s:
            problems.append(f"schnorr hours at {bandwidth}: {schnorr} != {want_s}")
        if not want_s <= mixed <= want_e:
            problems.append(f"mixed hours at {bandwidth} (f={mixed_fraction}): {mixed} "
                            f"outside [{want_s}, {want_e}]")
    return problems


def check_weight(weight: int, scheme: str, n_inputs: int) -> list:
    problems = []
    if weight != mega_weight(scheme, n_inputs):
        problems.append(f"{scheme} x{n_inputs}: weight {weight} != {mega_weight(scheme, n_inputs)}")
    fits = n_inputs <= MEGA[scheme][2]
    if (weight <= BLOCK_WEIGHT) != fits:
        problems.append(f"{scheme} x{n_inputs}: weight {weight} should "
                        f"{'fit' if fits else 'overflow'} a {BLOCK_WEIGHT} WU block")
    return problems


# --- rendered tables --------------------------------------------------


def parse_table(text: str, fmt: str) -> tuple[list, list]:
    """Columns and rows of a rendered report; cells are strings for csv
    and md, JSON values for json."""
    if fmt == "json":
        rows = json.loads(text)
        return (list(rows[0]) if rows else []), rows
    if fmt == "csv":
        records = list(csv.reader(io.StringIO(text)))
    else:
        lines = text.splitlines()
        if len(lines) < 2 or set(lines[1].replace("|", "").split()) != {"---"}:
            raise ValueError("not a markdown table")
        records = [[cell.strip() for cell in line.strip().strip("|").split("|")]
                   for line in [lines[0], *lines[2:]]]
    columns, *body = records
    return columns, [dict(zip(columns, record)) for record in body]


def _cell(value, decimals):
    """How an exact expected value prints in csv/md, and reads in JSON."""
    if decimals is not None:
        return half_up(value, decimals), float(value)
    if isinstance(value, Fraction):
        return str(float(value)), float(value)
    return str(value), value


def check_table(text: str, fmt: str, columns: list, expected: list, round_to=None) -> list:
    """Compare a rendered report with expected rows.

    ``expected`` rows map column -> exact value, or -> a predicate taking
    the parsed number and returning a problem string or None.
    """
    round_to = round_to or {}
    try:
        got_columns, rows = parse_table(text, fmt)
    except (ValueError, IndexError) as exc:
        return [f"{fmt}: unparseable output ({exc})"]
    if got_columns != columns:
        return [f"{fmt}: columns {got_columns} != {columns}"]
    if len(rows) != len(expected):
        return [f"{fmt}: {len(rows)} rows != {len(expected)}"]
    problems = []
    for index, (row, want) in enumerate(zip(rows, expected)):
        for column in columns:
            got, spec = row.get(column), want[column]
            if callable(spec):
                try:
                    problem = spec(got if fmt == "json" else float(got))
                except (TypeError, ValueError):
                    problem = f"not a number: {got!r}"
                if problem:
                    problems.append(f"{fmt} row {index} {column}: {problem}")
                continue
            text_form, json_form = _cell(spec, round_to.get(column))
            if got != (json_form if fmt == "json" else text_form):
                problems.append(f"{fmt} row {index} {column}: {got!r} != "
                                f"{json_form if fmt == 'json' else text_form!r}")
    return problems


def expected_capacity() -> tuple[list, list, dict]:
    rows = [{"strategy": label, "per_input_wu": MEGA[scheme][0],
             "overhead_wu": MEGA[scheme][1], "utxos_per_block": MEGA[scheme][2]}
            for label, scheme in (("ecdsa-mega", "ecdsa-segwit"),
                                  ("schnorr-mega", "schnorr-taproot"))]
    rows.append({"strategy": "one-per-tx", "per_input_wu": CANONICAL_TX_WU,
                 "overhead_wu": 0, "utxos_per_block": ONE_PER_TX_CAPACITY})
    return list(rows[0]), rows, {}


def expected_plan(mixed: bool = False) -> tuple[list, list, dict]:
    columns = ["bandwidth", "ecdsa_hours", "ecdsa_days", "schnorr_hours", "schnorr_days"]
    rows = []
    for bandwidth in DEFAULT_BANDWIDTHS:
        e = lower_bound_hours("ecdsa-segwit", bandwidth)
        s = lower_bound_hours("schnorr-taproot", bandwidth)
        row = {"bandwidth": bandwidth, "ecdsa_hours": e, "ecdsa_days": e / 24,
               "schnorr_hours": s, "schnorr_days": s / 24}
        if mixed:
            row["mixed_hours"] = _between(s, e)
            row["mixed_days"] = _between(s / 24, e / 24)
        rows.append(row)
    if mixed:
        columns += ["mixed_hours", "mixed_days"]
    return columns, rows, {column: 2 for column in columns[1:]}


def _between(low: Fraction, high: Fraction):
    # Printed cells are rounded to 2 decimals, so widen by half a cent.
    slack = Fraction(1, 200)

    def check(number):
        if not low - slack <= Fraction(number) <= high + slack:
            return f"{number} outside [{float(low)}, {float(high)}]"
        return None
    return check


def expected_plan_schedule() -> tuple[list, list, dict]:
    columns = ["scheme", "style", "bandwidth", "upgrade_blocks", "blocks_elapsed",
               "duration_hours", "duration_days"]
    rows = []
    for scheme in MEGA:
        totals = schedule_totals(scheme, "fraction", Fraction(1, 2))
        rows.append({"scheme": scheme, "style": "fraction", "bandwidth": Fraction(1, 2),
                     "upgrade_blocks": totals["upgrade_blocks"],
                     "blocks_elapsed": totals["blocks_elapsed"],
                     "duration_hours": totals["duration_hours"],
                     "duration_days": totals["duration_hours"] / 24})
    return columns, rows, {"duration_hours": 2, "duration_days": 2}


def expected_impact() -> tuple[list, list, dict]:
    rows = []
    for scheme, bits in SIGNATURE_BITS.items():
        weight = CANONICAL_TX_WU + (bits - ECDSA_BITS) // 8
        per_block = BLOCK_WEIGHT // weight
        rows.append({"scheme": scheme, "signature_bits": bits,
                     "signature_ratio": Fraction(bits, ECDSA_BITS),
                     "tx_weight_wu": weight, "tx_per_block": per_block,
                     "weight_slowdown": Fraction(ONE_PER_TX_CAPACITY, per_block)})
    return list(rows[0]), rows, {}


def expected_attack(seed: int, trials: int = 100_000, clock_hz: float = 1000.0,
                    key_bits: int = 256) -> tuple[list, list, dict]:
    break_s = key_bits**2 / clock_hz
    p = closed_form("memoryless", break_s)

    def estimate(number):
        if not abs(number - p) <= mc_tolerance(p, trials):
            return f"estimate {number} too far from {p}"
        return None

    row = {"mining": "memoryless", "key_bits": key_bits, "clock_hz": clock_hz,
           "overhead_seconds": 0.0, "break_seconds": break_s, "p_closed_form": p,
           "p_estimate": estimate, "std_error": lambda number: None,
           "trials": trials, "seed": seed}
    return list(row), [row], {}


def check_attack_consistency(texts: dict) -> list:
    """All formats of one same-seed attack report carry the same numbers,
    and each std_error matches its estimate."""
    problems = []
    parsed = {}
    for fmt, text in texts.items():
        try:
            _, rows = parse_table(text, fmt)
        except (ValueError, IndexError):
            continue  # reported by check_table
        parsed[fmt] = [(float(r["p_estimate"]), float(r["std_error"])) for r in rows]
    for fmt, rows in parsed.items():
        for estimate, std_error in rows:
            want = math.sqrt(estimate * (1.0 - estimate) / 100_000)
            if not math.isclose(std_error, want, rel_tol=1e-12, abs_tol=1e-300):
                problems.append(f"{fmt}: std_error {std_error} != {want}")
    if len({tuple(rows) for rows in parsed.values()}) > 1:
        problems.append(f"attack formats disagree: {parsed}")
    return problems


EXPECTED = {
    "capacity": lambda seed: expected_capacity(),
    "plan": lambda seed: expected_plan(),
    "plan-mixed": lambda seed: expected_plan(mixed=True),
    "plan-schedule": lambda seed: expected_plan_schedule(),
    "impact": lambda seed: expected_impact(),
    "attack": expected_attack,
}
PINNED_CSV = {"capacity": CAPACITY_CSV, "plan": PLAN_CSV}


def check_cli_output(command: str, fmt: str, text: str, attack_seed: int) -> list:
    """One CLI invocation's output against the oracle for its subcommand."""
    if fmt == "csv" and command in PINNED_CSV and text != PINNED_CSV[command]:
        return [f"{command} csv differs from the pinned README table: {text!r}"]
    columns, rows, round_to = EXPECTED[command](attack_seed)
    return [f"{command}: {p}" for p in check_table(text, fmt, columns, rows, round_to)]
