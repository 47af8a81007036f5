"""Command line front end and report rendering.

Four subcommands, one per model surface, each declared in ``_COMMANDS``.

Reports render in one of ``FORMATS``: CSV, JSON, or a Markdown table.
Duration cells carry exact ``Fraction`` values until rendering: CSV and
Markdown print every column in hours or days (a name ending ``_hours``
or ``_days``) half-up at 2 decimals, JSON keeps full precision, and a
value too large to print is bad input.  Output is deterministic, so
identical flags (and seed) give identical bytes, and ``--out`` writes
the bytes stdout would.  Handlers return rows, and every cell but the
schedule's hours-to-days conversion comes straight from a library call.

Exit codes: 0 success, 1 bad usage or bad values, 2 I/O failure.
"""

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
    try:
        if not rounded and isinstance(value, Rational) and not isinstance(value, int):
            return str(float(value))
        return round_half_up(value) if rounded else str(value)
    except ValueError:  # str refuses an int past Python's int-digit limit
        raise ValueError(f"{col}: value too long to print") from None
    except OverflowError:  # float refuses a Fraction past its range
        raise ValueError(f"{col}: value too large to print") from None


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


def _echo(text: str, show=repr) -> str:
    """show(text) for a message; past 40 characters, show its first 40 and its length."""
    return show(text) if len(text) <= 40 else f"{show(text[:40])}... ({len(text)} characters)"


def _parsed(read, text: str, failure: str):
    """read(text), else ValueError: "too many digits" if the text reads
    with each run of digits cut to one, so that only Python's int-digit
    limit refused it, and ``failure`` otherwise."""
    try:
        return read(text)
    except ValueError:
        try:
            read(re.sub(r"\d+", "1", text))
            failure = "too many digits"
        except ValueError:
            pass
    except ZeroDivisionError:
        pass
    raise ValueError(f"{failure}: {_echo(text)}")


# Fraction("1eN") builds 10**N, in time superlinear in N, before any
# range check can run.  No accepted value needs an exponent beyond
# Python's int-digit limit, so a larger one is refused unbuilt.
_MAX_EXPONENT = 4300


def _exact_literal(text: str) -> Fraction:
    """The exact value of a decimal or p/q literal.  ValueError for an
    exponent beyond _MAX_EXPONENT, refused before 10**N is built, for too
    many digits, and for nan, inf, 1/0 and text that is not a number."""
    match = re.search(r"[eE][-+]?([\d_]+)", text)
    digits = match[1].replace("_", "").lstrip("0") if match else ""
    if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
        raise ValueError(f"decimal exponent beyond {_MAX_EXPONENT} in magnitude: {_echo(text)}")
    return _parsed(Fraction, text, "not a number")


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

    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(
                handle, parse_float=_exact_literal, parse_int=lambda text: _parsed(int, text, "")
            )
        if not isinstance(payload, dict):
            raise ValueError("expected a JSON object")
        if "total_utxos" not in payload:
            raise ValueError("missing required field total_utxos")
        return UtxoSnapshot(
            as_of=str(payload.get("as_of", "unspecified")),
            total=payload["total_utxos"],
            schnorr_fraction=payload.get("schnorr_fraction", 0),
        )
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"snapshot {path}: invalid JSON: {exc}") from exc
    except ValueError as exc:  # a number too long or too large, or a bad field
        raise ValueError(f"snapshot {path}: {exc}") from exc


def _params(args) -> "NetworkParams":
    from .weight_model import DEFAULT_PARAMS

    reserves = args.get("--include-reserves")
    return DEFAULT_PARAMS._replace(apply_reserves=True) if reserves else DEFAULT_PARAMS


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
    return rows


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
    return rows


def _cmd_plan(args):
    from .migration_planner import bandwidth_table

    params = _params(args)
    snapshot = load_snapshot(args["--snapshot"])
    bandwidths = args["--bandwidth"]
    if args["--schedule"] is not None:
        if bandwidths is None:
            raise ValueError("--schedule requires an explicit --bandwidth")
        if args["--schnorr-fraction"] is not None:
            raise ValueError(
                "--schnorr-fraction does not apply to --schedule: "
                "schedules price the whole pool under each scheme"
            )
        return _schedule_rows(snapshot, bandwidths, args["--schedule"], params)
    if args["--schnorr-fraction"] is not None:
        snapshot = snapshot._replace(schnorr_fraction=args["--schnorr-fraction"])
    return bandwidth_table(snapshot, bandwidths or DEFAULT_BANDWIDTHS, params)


def _cmd_attack(args):
    from .jit_attack_sim import (
        AttackScenario,
        FixedInterval,
        Memoryless,
        QuantumAttacker,
        sweep,
    )

    clocks = args["--clock-hz"] or list(DEFAULT_CLOCKS)
    mining = FixedInterval() if args["--mining"] == "fixed" else Memoryless()
    overhead = args["--overhead"] + 0.0  # --overhead -0 prints as 0.0
    scenario = AttackScenario(
        attacker=QuantumAttacker(key_bits=args["--key-bits"], overhead_seconds=overhead),
        mining=mining,
    )
    return [
        {"mining": args["--mining"], **row}
        for row in sweep(scenario, clocks, args["--trials"], args["--seed"])
    ]


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
    return rows


# --- the command line -------------------------------------------------

# The one declaration of the command line: per subcommand its help, handler
# and flags; per flag its reader (a function of its text, a tuple of the
# values it may take, or None for a switch), default, repeats and help.
_OUTPUT = {"--format": (FORMATS, "csv", False, "output format"),
           "--out": (str, None, False, "write output to this file, not stdout")}
_BLOCK_FLAGS = {"--include-reserves": (None, None, False, "subtract block reserves"), **_OUTPUT}
_COMMANDS = {
    "capacity": ("per-block upgrade capacity by packing strategy", _cmd_capacity, _BLOCK_FLAGS),
    "plan": ("migration duration bounds and throttled schedules", _cmd_plan, {
        "--snapshot": (str, None, False, "UTXO snapshot JSON file"),
        "--bandwidth": (_exact_literal, None, True,
                        "block share in (0, 1]; repeatable (default: 1/4 1/2 3/4 1)"),
        "--schnorr-fraction": (_exact_literal, None, False,
                               "override the snapshot's key-aggregable share, in [0, 1]"),
        "--schedule": (("k", "fraction"), None, False,
                       "schedule upgrades in every k-th block, or in a share of each block"),
        **_BLOCK_FLAGS}),
    "attack": ("key-theft race win probabilities", _cmd_attack, {
        "--key-bits": (int, 256, False, "bits of the key to break"),
        "--clock-hz": (float, None, True, "effective logical clock; repeatable (default: 1000)"),
        "--overhead": (float, 0.0, False, "fixed key-extraction overhead in seconds"),
        "--mining": (("fixed", "memoryless"), "memoryless", False, "block arrival model"),
        "--trials": (int, DEFAULT_TRIALS, False, "Monte Carlo trials per row"),
        "--seed": (int, DEFAULT_SEED, False, "RNG seed"),
        **_OUTPUT}),
    "impact": ("post-quantum signature throughput impact", _cmd_impact, _BLOCK_FLAGS),
}


def _read(argv):
    """The handler argv names and its flags' values, or (None, None) once the
    help asked for is printed; else ValueError ending in a usage line.  A
    flag's value follows = or is the next word, unless that is -h or --*."""
    command, words = None, iter(argv)
    try:
        for word in words:
            if word in ("-h", "--help"):
                sys.stdout.write(_help(command))
                return None, None
            if command is None:
                command = _value("command", tuple(_COMMANDS), word)
                _, handler, flags = _COMMANDS[command]
                values = {flag: spec[1] for flag, spec in flags.items()}
                continue
            flag, given, text = word.partition("=")
            if flag not in flags or (given and flags[flag][0] is None):
                raise ValueError(f"unrecognized arguments: {_echo(word, str)}")
            reader, _, repeats, _ = flags[flag]
            if reader is not None and not given:
                text = next(words, "--")  # at the end, as if a flag followed
                if text == "-h" or text.startswith("--"):
                    raise ValueError(f"argument {flag}: expected one argument")
            value = True if reader is None else _value(flag, reader, text)
            values[flag] = [*(values[flag] or ()), value] if repeats else value
        if command is None:
            raise ValueError("the following arguments are required: command")
    except ValueError as exc:
        usage = _help(command).partition("\n")[0]
        raise ValueError(f"{exc}\n{usage}") from None
    return handler, values


def _value(flag: str, reader, text: str):
    """What a flag's reader reads from its text, or ValueError naming the flag."""
    try:
        if isinstance(reader, tuple):
            if text in reader:
                return text
            choices = ", ".join(map(repr, reader))
            raise ValueError(f"invalid choice: {_echo(text)} (choose from {choices})")
        if reader in (int, float):
            return _parsed(reader, text, f"invalid {reader.__name__} value")
        return reader(text)
    except ValueError as exc:
        raise ValueError(f"argument {flag}: {exc}") from None


def _help(command=None) -> str:
    """--help for qsafe or one subcommand, from _COMMANDS; its first line is the usage."""
    if command is None:
        entries = {name: about for name, (about, _, _) in _COMMANDS.items()}
        usage = "[-h] {" + ",".join(_COMMANDS) + "} ..."
    else:
        entries = {
            flag + ("" if reader is None else " {" + ",".join(reader) + "}"
                    if isinstance(reader, tuple) else " " + flag[2:].upper().replace("-", "_")):
            text if default is None else f"{text} (default: {default})"
            for flag, (reader, default, _, text) in _COMMANDS[command][2].items()
        }
        usage = " ".join([command, "[-h]", *(f"[{name}]" for name in entries)])
    width = max(map(len, entries)) + 2
    lines = "".join(f"  {name:<{width}}{text}\n" for name, text in entries.items())
    return f"usage: qsafe {usage}\n\n{lines}"


def run(argv=None) -> int:
    # stdout is flushed inside this try, so that a closed stdout is
    # reported as a failed --out is.
    try:
        handler, args = _read(sys.argv[1:] if argv is None else argv)
        if handler is None:  # _read printed the help asked for
            sys.stdout.flush()
            return EXIT_OK
        rows = handler(args)
        # CSV and Markdown print every column in hours or days to the cent.
        rounded = {col for row in rows[:1] for col in row if col.endswith(("_hours", "_days"))}
        text = render_report(rows, args["--format"], rounded)
        if args["--out"] is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            # newline="" keeps the file's bytes equal to stdout's on
            # every platform.
            with open(args["--out"], "w", encoding="utf-8", newline="") as handle:
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
    # imports built (classes and functions): about 4 ms of a 30 ms cold
    # command.  Nothing left alive here needs a finaliser: --out is
    # closed, and the standard streams are still flushed and atexit
    # handlers still run.  run() never freezes, so callers in-process
    # keep a normal collector.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
