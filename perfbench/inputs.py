"""Workload inputs, generated from the workload seed alone.

Only this module reads the seed.  The program under test receives the
values it returns (invocation order, ``--seed`` flags, clock speeds,
chunk boundaries, call order), never the seed itself.  Input sizes do
not depend on the seed, so every work count (trials, blocks, rows)
repeats exactly from one seed to the next; only values and order move.

Standard library only: the orchestrator imports this module and must
stay free of numpy and qsafe.
"""

import random
from fractions import Fraction

WORKLOADS = ("cli-cold", "mc-deep", "plan-schedules")
FORMATS = ("csv", "json", "md")

# Every subcommand path a user takes, one argv each (without --format,
# --out or --seed, which the sequence adds).
CLI_COMMANDS = {
    "capacity": ("capacity",),
    "plan": ("plan",),
    "plan-mixed": ("plan", "--schnorr-fraction", "0.3"),
    "plan-schedule": ("plan", "--schedule", "fraction", "--bandwidth", "1/2"),
    "impact": ("impact",),
    "attack": ("attack",),
}

MC_DEEP_TRIALS = 2**23
MC_DEEP_ROWS = 2  # per mining model
MC_DEEP_CHUNKS = 4
MINING_MODELS = ("memoryless", "fixed")

SCHEMES = ("ecdsa-segwit", "schnorr-taproot")
EVERY_K = (10, 100, 1_000)
FRACTIONS = (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100))


def _rng(workload: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, so it does not depend on
    # PYTHONHASHSEED and gives each workload its own stream.
    return random.Random(f"{workload}/{seed}")


def cli_sequence(seed: int) -> dict:
    """The ordered CLI invocations of one ``cli-cold`` pass.

    Each subcommand runs once per format.  For each subcommand one
    seed-chosen format writes with ``--out`` and the others go to
    stdout.  The ``attack`` invocation that writes a file gets a stdout
    twin with identical flags, so the file bytes can be compared with
    stdout bytes and two same-seed runs with each other.
    """
    rng = _rng("cli-cold", seed)
    attack_seed = rng.randrange(2**31)
    invocations = []
    for command, argv in CLI_COMMANDS.items():
        out_format = rng.choice(FORMATS)
        for fmt in FORMATS:
            args = list(argv)
            if command == "attack":
                args += ["--seed", str(attack_seed)]
            args += ["--format", fmt]
            invocations.append({"command": command, "format": fmt, "args": args,
                                "to_file": fmt == out_format})
            if command == "attack" and fmt == out_format:
                invocations.append({"command": command, "format": fmt, "args": list(args),
                                    "to_file": False, "twin": True})
    rng.shuffle(invocations)
    for index, invocation in enumerate(invocations):
        invocation["id"] = index
        invocation.setdefault("twin", False)
    return {"attack_seed": attack_seed, "invocations": invocations}


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return 10 ** rng.uniform(low, high)


def mc_deep(seed: int) -> dict:
    """Two rows per mining model at 2**23 trials, and a chunk split of one row.

    The split always cuts a memoryless row into MC_DEEP_CHUNKS chunks, so
    the work (and the ``race_win_count`` call count) is the same for every
    seed; the seed picks the row and the chunk boundaries.
    """
    rng = _rng("mc-deep", seed)
    mc_seed = rng.randrange(2**63)
    # 300 Hz .. 30 kHz puts the win probability well inside (0, 1).
    clocks = {model: [_log_uniform(rng, 2.5, 4.5) for _ in range(MC_DEEP_ROWS)]
              for model in MINING_MODELS}
    cuts = sorted(rng.sample(range(1, MC_DEEP_TRIALS), MC_DEEP_CHUNKS - 1))
    bounds = [0, *cuts, MC_DEEP_TRIALS]
    return {
        "mc_seed": mc_seed,
        "trials": MC_DEEP_TRIALS,
        "clocks": clocks,
        "split_model": "memoryless",
        "split_row": rng.randrange(MC_DEEP_ROWS),
        "chunks": list(zip(bounds, bounds[1:])),
    }


def plan_schedules(seed: int) -> dict:
    """Schedule, grid and layout-weight calls, in a fixed order.

    The UTXO total stays the built-in snapshot's, so blocks elapsed (the
    work) is the same for every seed; the seed picks the Schnorr share of
    the mixed-pool grid column.  The order is fixed because it moved the
    peak RSS: a shuffled order left 205-221 MB peaks from seed to seed.
    """
    rng = _rng("plan-schedules", seed)
    calls = [("schedule", scheme, "k", k) for scheme in SCHEMES for k in EVERY_K]
    calls += [("schedule", scheme, "fraction", q) for scheme in SCHEMES for q in FRACTIONS]
    calls.append(("grid",))
    calls += [("weight", scheme, extra) for scheme in SCHEMES for extra in (0, 1)]
    return {"calls": calls, "schnorr_fraction": Fraction(rng.randint(1, 99), 100)}


GENERATORS = {
    "mc-deep": mc_deep,
    "plan-schedules": plan_schedules,
}
