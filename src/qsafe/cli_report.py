"""Command line front end and report rendering.

Four subcommands, one per model surface:

  capacity   per-block upgrade capacities for each packing strategy
  plan       migration duration lower bounds, or throttled schedules
  attack     key-theft race probabilities (closed form and Monte Carlo)
  impact     post-quantum signature weight and throughput cost

Reports render in one of ``FORMATS``: CSV, JSON, or a Markdown table.
Duration cells carry exact ``Fraction`` values until rendering: CSV and
Markdown print the columns a handler names half-up at 2 decimals, JSON
keeps full precision, and a value too large for a JSON number is bad
input.  Output is deterministic, so identical flags (and seed) give
identical bytes, and ``--out`` writes the bytes stdout would.
The CLI does no arithmetic of its own beyond the hours-to-days unit
conversion; every other cell comes straight from a library call.

Exit codes: 0 success, 1 bad usage or bad values, 2 I/O failure.
"""

import argparse
import gc
import io
import os
import re
import sys
from fractions import Fraction
from numbers import Rational

# Each handler imports the model modules it calls, so a subcommand
# loads only those.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .migration_planner import UtxoSnapshot
    from .weight_model import NetworkParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2

DEFAULT_SEED = 42

DEFAULT_BANDWIDTHS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
DEFAULT_CLOCKS = (1000.0,)
DEFAULT_TRIALS = 100_000


# --- report rendering -------------------------------------------------


FORMATS = ("csv", "json", "md")


def round_half_up(value) -> str:
    """Render a number at 2 decimals with halves rounded up (toward +infinity).

    Exact for int/Fraction inputs; floats are taken at their binary
    value.  Python's ``round`` and ``format`` both round half to even,
    which would misprint table cells landing exactly on a half.
    """
    n, d = (Fraction(value) * 100).as_integer_ratio()
    cents = (2 * n + d) // (2 * d)  # floor(100 * value + 1/2)
    sign = "-" if cents < 0 else ""
    whole, frac = divmod(abs(cents), 100)
    return f"{sign}{whole}.{frac:02d}"


def _cell_text(col, value, rounded: bool) -> str:
    if not rounded and isinstance(value, Rational) and not isinstance(value, int):
        return str(float(value))
    try:
        return round_half_up(value) if rounded else str(value)
    except ValueError:  # str refuses an int past Python's int-digit limit
        raise ValueError(f"{col}: value too long to print") from None


def _cell_json(col, value):
    if isinstance(value, Rational) and not isinstance(value, int):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{col}: value too large for a JSON number") from None
    return value


def render_report(rows, fmt, rounded=()) -> str:
    """Render rows as text in one of ``FORMATS``, trailing newline included.

    The columns are the first row's keys, in order.  ``rounded`` names
    the columns that CSV and Markdown print half-up at 2 decimals; JSON
    ignores it and keeps full numeric precision.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {fmt!r}")
    if not rows:
        raise ValueError("rows must be non-empty")
    cols = list(rows[0])

    if fmt == "json":
        import json

        payload = [{col: _cell_json(col, row[col]) for col in cols} for row in rows]
        return json.dumps(payload, indent=2) + "\n"

    cells = [[_cell_text(col, row[col], col in rounded) for col in cols] for row in rows]
    if fmt == "csv":
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows(cells)
        return buffer.getvalue()

    lines = ["| " + " | ".join(cols) + " |"]
    lines.append("| " + " | ".join("---" for _ in cols) + " |")
    lines.extend("| " + " | ".join(row) + " |" for row in cells)
    return "\n".join(lines) + "\n"


# --- input parsing ----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that looks like a negative number as
        # a value, not a flag.  Its pattern knows -1 and -.5 but not -1/2
        # or -1e-3, so without this such a negative literal would never
        # reach the range checks.
        known = self._negative_number_matcher.pattern
        self._negative_number_matcher = re.compile(rf"{known}|^-[\d.]+([eE][-+]?\d+|/\d+)$")

    # argparse exits with status 2 on bad flags; usage problems here are
    # exit 1, with 2 reserved for I/O, so route errors through ValueError.
    def error(self, message):
        raise ValueError(f"{message}\n{self.format_usage().rstrip()}")


# Fraction("1eN") builds 10**N, in time superlinear in N, before any
# range check can run.  No accepted value needs an exponent beyond
# Python's int-digit limit, so a larger one is refused unbuilt.
_MAX_EXPONENT = 4300


def _exact_literal(text: str) -> Fraction:
    """The exact value of a decimal or p/q literal.  ValueError for an
    exponent beyond _MAX_EXPONENT, refused before 10**N is built, and for
    nan, inf, 1/0 and text that is not a number."""
    match = re.search(r"[eE][-+]?([\d_]+)", text)
    if match is not None:
        digits = match[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond {_MAX_EXPONENT} in magnitude: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a number: {text!r}") from exc


# argparse replaces ValueError messages from type= callbacks with a
# generic one; ArgumentTypeError text survives verbatim.
def _parse_fraction(text: str) -> Fraction:
    """_exact_literal for a flag; argparse names the flag."""
    try:
        return _exact_literal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def load_snapshot(path: str | None) -> "UtxoSnapshot":
    """Read a UTXO snapshot from a JSON file, or return the built-in one.

    Expected shape: an object with integer ``total_utxos`` (required),
    optional ``schnorr_fraction`` in [0, 1], optional ``as_of`` string.
    Decimal literals are read as exact fractions, so ``0.3`` is 3/10.
    ``UtxoSnapshot`` checks the values; any fault raises one ValueError
    naming the path.
    """
    from .migration_planner import DEFAULT_SNAPSHOT, UtxoSnapshot

    if path is None:
        return DEFAULT_SNAPSHOT
    import json

    with open(path, encoding="utf-8") as handle:
        # Bad UTF-8, bad JSON, too many digits and too large an exponent
        # raise ValueError; deep nesting, RecursionError.
        try:
            payload = json.load(handle, parse_float=_exact_literal)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"snapshot {path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"snapshot {path}: expected a JSON object")
    if "total_utxos" not in payload:
        raise ValueError(f"snapshot {path}: missing required field total_utxos")
    try:
        return UtxoSnapshot(
            as_of=str(payload.get("as_of", "unspecified")),
            total=payload["total_utxos"],
            schnorr_fraction=payload.get("schnorr_fraction", 0),
        )
    except ValueError as exc:
        raise ValueError(f"snapshot {path}: {exc}") from exc


def _params(args) -> "NetworkParams":
    from .weight_model import DEFAULT_PARAMS

    if getattr(args, "include_reserves", False):
        return DEFAULT_PARAMS._replace(apply_reserves=True)
    return DEFAULT_PARAMS


# --- subcommand handlers ----------------------------------------------


def _cmd_capacity(args):
    from .block_packer import (
        UpgradeScheme,
        fixed_overhead,
        mega_capacity,
        per_input_weight,
        standalone_upgrade_weight,
    )

    params = _params(args)
    ecdsa, schnorr = UpgradeScheme.ECDSA_SEGWIT, UpgradeScheme.SCHNORR_TAPROOT
    strategies = (
        ("ecdsa-mega", per_input_weight(ecdsa), fixed_overhead(ecdsa)),
        ("schnorr-mega", per_input_weight(schnorr), fixed_overhead(schnorr)),
        ("one-per-tx", standalone_upgrade_weight(), 0),
    )
    rows = [
        {
            "strategy": label,
            "per_input_wu": per_input,
            "overhead_wu": overhead,
            "utxos_per_block": mega_capacity(per_input, overhead, params),
        }
        for label, per_input, overhead in strategies
    ]
    return rows, ()


def _schedule_rows(snapshot, bandwidths, style_name, params):
    from . import _shown
    from .block_packer import UpgradeScheme
    from .migration_planner import EveryKthBlock, FractionOfEachBlock, throttled_schedule

    rows = []
    for scheme in (UpgradeScheme.ECDSA_SEGWIT, UpgradeScheme.SCHNORR_TAPROOT):
        for bandwidth in bandwidths:
            if style_name == "k":
                if bandwidth.numerator != 1:
                    raise ValueError(
                        "bandwidth: every-kth scheduling needs a unit fraction "
                        f"(1/k), got {_shown(bandwidth)}"
                    )
                style = EveryKthBlock(bandwidth.denominator)
            else:
                style = FractionOfEachBlock(bandwidth)
            timeline = throttled_schedule(snapshot, scheme, style, params)
            hours = timeline.duration_hours
            rows.append(
                {
                    "scheme": scheme.value,
                    "style": style_name,
                    "bandwidth": bandwidth,
                    "upgrade_blocks": timeline.upgrade_blocks,
                    "blocks_elapsed": timeline.blocks_elapsed,
                    "duration_hours": hours,
                    "duration_days": hours / 24,
                }
            )
    return rows, {"duration_hours", "duration_days"}


def _cmd_plan(args):
    from .migration_planner import bandwidth_table, mixed_duration

    params = _params(args)
    snapshot = load_snapshot(args.snapshot)
    bandwidths = args.bandwidth
    if args.schedule is not None:
        if bandwidths is None:
            raise ValueError("--schedule requires an explicit --bandwidth")
        if args.schnorr_fraction is not None:
            raise ValueError(
                "--schnorr-fraction does not apply to --schedule: "
                "schedules price the whole pool under each scheme"
            )
        return _schedule_rows(snapshot, bandwidths, args.schedule, params)
    if args.schnorr_fraction is not None:
        snapshot = snapshot._replace(schnorr_fraction=args.schnorr_fraction)
    if bandwidths is None:
        bandwidths = list(DEFAULT_BANDWIDTHS)
    rows = bandwidth_table(snapshot, bandwidths, params)
    if snapshot.schnorr_fraction > 0:
        # Interpolated between the two pure bounds by the Schnorr share;
        # not a bound on the mixed pool.
        for row, bandwidth in zip(rows, bandwidths):
            hours = mixed_duration(snapshot, bandwidth, params)
            row["mixed_hours"] = hours
            row["mixed_days"] = hours / 24
    return rows, set(rows[0]) - {"bandwidth"}


def _cmd_attack(args):
    from .jit_attack_sim import (
        AttackScenario,
        FixedInterval,
        Memoryless,
        QuantumAttacker,
        sweep,
    )

    clocks = args.clock_hz if args.clock_hz is not None else list(DEFAULT_CLOCKS)
    mining = FixedInterval() if args.mining == "fixed" else Memoryless()
    overhead = args.overhead + 0.0  # --overhead -0 prints as 0.0
    scenario = AttackScenario(
        attacker=QuantumAttacker(key_bits=args.key_bits, overhead_seconds=overhead),
        mining=mining,
    )
    rows = []
    for result in sweep(scenario, clocks, args.trials, args.seed):
        rows.append(
            {
                "mining": args.mining,
                "key_bits": args.key_bits,
                "clock_hz": result["clock_hz"],
                "overhead_seconds": overhead,
                "break_seconds": result["break_seconds"],
                "p_closed_form": result["p_closed_form"],
                "p_estimate": result["p_estimate"],
                "std_error": result["std_error"],
                "trials": args.trials,
                "seed": args.seed,
            }
        )
    return rows, ()


def _cmd_impact(args):
    from .pq_impact import (
        PqScheme,
        post_upgrade_transaction_weight,
        signature_ratio,
        throughput_slowdown,
        transactions_per_block,
    )

    params = _params(args)
    rows = []
    for scheme in (
        PqScheme.CRYSTALS_DILITHIUM,
        PqScheme.FALCON,
        PqScheme.SPHINCS_PLUS,
    ):
        rows.append(
            {
                "scheme": scheme.value,
                "signature_bits": scheme.signature_bits,
                "signature_ratio": signature_ratio(scheme),
                "tx_weight_wu": post_upgrade_transaction_weight(scheme),
                "tx_per_block": transactions_per_block(scheme, params),
                "weight_slowdown": throughput_slowdown(scheme, params),
            }
        )
    return rows, ()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qsafe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_reserves(p):
        p.add_argument(
            "--include-reserves", action="store_true",
            help="subtract header and counter reserves from the block limit",
        )

    def add_common(p):
        p.add_argument(
            "--format", choices=FORMATS, default="csv",
            help="output format (default: csv)",
        )
        p.add_argument("--out", metavar="PATH", help="write output to a file")

    p_capacity = sub.add_parser(
        "capacity", help="per-block upgrade capacity by packing strategy"
    )
    add_reserves(p_capacity)
    add_common(p_capacity)
    p_capacity.set_defaults(handler=_cmd_capacity)

    p_plan = sub.add_parser(
        "plan", help="migration duration bounds and throttled schedules"
    )
    p_plan.add_argument("--snapshot", metavar="PATH", help="UTXO snapshot JSON file")
    p_plan.add_argument(
        "--bandwidth", action="append", type=_parse_fraction, metavar="FRACTION",
        help="block share in (0, 1]; repeatable (default: 1/4 1/2 3/4 1)",
    )
    p_plan.add_argument(
        "--schnorr-fraction", type=_parse_fraction, metavar="F",
        help="override the snapshot's key-aggregable share in [0, 1] (not with --schedule)",
    )
    p_plan.add_argument(
        "--schedule", choices=["k", "fraction"],
        help="emit a throttled schedule instead of lower bounds "
        "(k: upgrade every k-th block; fraction: share of each block)",
    )
    add_reserves(p_plan)
    add_common(p_plan)
    p_plan.set_defaults(handler=_cmd_plan)

    p_attack = sub.add_parser(
        "attack", help="key-theft race win probabilities"
    )
    p_attack.add_argument("--key-bits", type=int, default=256)
    p_attack.add_argument(
        "--clock-hz", action="append", type=float, metavar="HZ",
        help="effective logical clock; repeatable (default: 1000)",
    )
    p_attack.add_argument(
        "--overhead", type=float, default=0.0, metavar="SECONDS",
        help="fixed key-extraction overhead (default: 0)",
    )
    p_attack.add_argument(
        "--mining", choices=["fixed", "memoryless"], default="memoryless",
        help="block arrival model (default: memoryless)",
    )
    p_attack.add_argument(
        "--trials", type=int, default=DEFAULT_TRIALS,
        help=f"Monte Carlo trials per row (default: {DEFAULT_TRIALS})",
    )
    p_attack.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"RNG seed (default: {DEFAULT_SEED})",
    )
    add_common(p_attack)
    p_attack.set_defaults(handler=_cmd_attack)

    p_impact = sub.add_parser(
        "impact", help="post-quantum signature throughput impact"
    )
    add_reserves(p_impact)
    add_common(p_impact)
    p_impact.set_defaults(handler=_cmd_impact)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    # stdout is flushed inside this try, so that a closed stdout is
    # reported as a failed --out is.
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help
            sys.stdout.flush()
            return int(exc.code or 0)
        rows, rounded = args.handler(args)
        text = render_report(rows, args.format, rounded)
        if args.out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            # newline="" keeps the file's bytes equal to stdout's on
            # every platform.
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except OSError as exc:
        print(f"qsafe: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"qsafe: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except OSError:
        # run() has reported it.  Point fd 1 at the null device, so that
        # the interpreter's own flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    # At exit the interpreter collects, one by one, every cycle that the
    # imports built (classes, functions, the argparse parser): about
    # 4 ms of a 30 ms cold command.  Nothing left alive here needs a
    # finaliser: --out is closed, and the standard streams are still
    # flushed and atexit handlers still run.  run() never freezes, so
    # callers in-process keep a normal collector.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
