"""Race model for the just-in-time key-theft attack.

A victim spending a vulnerable UTXO reveals its public key the moment
the transaction is broadcast.  An attacker who can derive the private
key fast enough broadcasts a competing, higher-fee spend of the same
UTXO; whichever transaction the next block includes wins.  With the
attacker outbidding on fees, the attacker wins exactly when the key
break finishes no later than the next block.

Two block-arrival models are provided: ``FixedInterval`` (blocks land on
a strict clock and the victim broadcasts at a uniform offset within an
interval) and ``Memoryless`` (exponential inter-block times, the usual
Poisson-mining picture).  Both default to a 600 s mean.

Randomness discipline: trials draw from a counter-based Philox stream
keyed by (seed, stream).  Trial i owns counter block i and reads the
first 64-bit word of that block, turned into a double in [0, 1) exactly
as numpy's ``Generator.random`` does (top 53 bits times 2**-53).  Any
contiguous range of trials can therefore be generated independently and
merged by summing win counts, bit-identical to a single serial run.
``race_win_count`` uses this itself: it streams its range through one
bit generator in chunks of ``_CHUNK_TRIALS`` trials, so its memory is
bounded by the chunk whatever the trial count, and its counts equal
those of drawing the whole range at once.

numpy is imported by the functions that draw, not by this module, so
importing qsafe and running its exact subcommands never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class InvalidClock(ValueError):
    """Effective clock speed must be finite and positive."""


def _finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class QuantumAttacker:
    """Key-break capability: key size, effective logical clock, and any
    fixed key-download/broadcast latency."""

    key_bits: int
    effective_clock_hz: float = 1000.0
    overhead_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.key_bits < 0:
            raise ValueError(f"key_bits must be >= 0, got {self.key_bits}")
        if not _finite_positive(self.effective_clock_hz):
            raise InvalidClock(
                "effective_clock_hz must be finite and positive, "
                f"got {self.effective_clock_hz}"
            )
        if not (math.isfinite(self.overhead_seconds) and self.overhead_seconds >= 0):
            raise ValueError(
                f"overhead_seconds must be finite and >= 0, got {self.overhead_seconds}"
            )


@dataclass(frozen=True)
class FixedInterval:
    """Blocks arrive on a strict clock; the victim's broadcast offset is
    uniform over one interval."""

    blocktime_seconds: float = 600.0

    def __post_init__(self) -> None:
        if not _finite_positive(self.blocktime_seconds):
            raise ValueError(
                f"blocktime_seconds must be finite and positive, got {self.blocktime_seconds}"
            )


@dataclass(frozen=True)
class Memoryless:
    """Exponential inter-block times with the given mean."""

    mean_blocktime_seconds: float = 600.0

    def __post_init__(self) -> None:
        if not _finite_positive(self.mean_blocktime_seconds):
            raise ValueError(
                "mean_blocktime_seconds must be finite and positive, "
                f"got {self.mean_blocktime_seconds}"
            )


MiningModel = FixedInterval | Memoryless


class FeePolicy(Enum):
    ATTACKER_OUTBIDS = "attacker-outbids"
    VICTIM_WINS_TIES = "victim-wins-ties"


class Winner(Enum):
    ATTACKER = "attacker"
    VICTIM = "victim"


@dataclass(frozen=True)
class AttackScenario:
    attacker: QuantumAttacker
    mining: MiningModel
    fee_policy: FeePolicy = FeePolicy.ATTACKER_OUTBIDS


@dataclass(frozen=True)
class RaceOutcome:
    """One resolved race.  Times are seconds after the victim's broadcast."""

    winner: Winner
    reveal_time: float
    break_done_time: float
    first_block_time: float


def break_duration(attacker: QuantumAttacker) -> float:
    """Seconds to derive the private key: key_bits**2 gate cycles at the
    effective clock, plus fixed overhead."""
    return attacker.key_bits**2 / attacker.effective_clock_hz + attacker.overhead_seconds


def success_probability_closed_form(scenario: AttackScenario) -> float:
    """Exact attacker-win probability for the scenario's mining model.

    FixedInterval: max(0, 1 - T/B).  Memoryless: exp(-T/B).  The two fee
    policies differ only on the zero-probability event of an exact tie,
    so the value is the same for both.
    """
    t_break = break_duration(scenario.attacker)
    mining = scenario.mining
    if isinstance(mining, FixedInterval):
        return max(0.0, 1.0 - t_break / mining.blocktime_seconds)
    return math.exp(-t_break / mining.mean_blocktime_seconds)


# Philox emits 4 64-bit words per counter increment; each trial owns one
# counter block and uses only its first word.
_WORDS_PER_BLOCK = 4

# race_win_count draws this many trials at a time, so its memory is a few
# MB whatever the size of its range.
_CHUNK_TRIALS = 1 << 16


def _philox(seed: int, stream: int, start: int = 0) -> np.random.Philox:
    """Bit generator of the (seed, stream) stream, positioned at trial start."""
    import numpy as np

    entropy = seed & ((1 << 128) - 1)  # SeedSequence rejects negative ints
    key = np.random.SeedSequence((entropy, stream)).generate_state(2, np.uint64)
    bitgen = np.random.Philox(key=key)
    if start:
        bitgen.advance(start)  # one counter block per trial
    return bitgen


def _next_uniforms(bitgen: np.random.Philox, count: int) -> np.ndarray:
    """Uniforms in [0, 1) of the next count trials of bitgen.

    Each is numpy's Philox double, (word >> 11) * 2**-53, of the first
    word of its trial's counter block: the value Generator.random gives.
    """
    words = bitgen.random_raw(count * _WORDS_PER_BLOCK)[::_WORDS_PER_BLOCK]
    return (words >> 11) * 2.0**-53


def _first_block_times(mining: MiningModel, uniforms: np.ndarray) -> np.ndarray:
    import numpy as np

    if isinstance(mining, FixedInterval):
        b = mining.blocktime_seconds
        return b - uniforms * b  # uniform broadcast offset in [0, B)
    b = mining.mean_blocktime_seconds
    return -b * np.log1p(-uniforms)  # inverse CDF; exactly one draw per trial


def _attacker_wins(
    fee_policy: FeePolicy, t_break: float, first_block: float | np.ndarray
) -> bool | np.ndarray:
    if fee_policy is FeePolicy.ATTACKER_OUTBIDS:
        return t_break <= first_block
    return t_break < first_block


def race_once(scenario: AttackScenario, seed: int) -> RaceOutcome:
    """Resolve a single race; a pure function of (scenario, seed)."""
    uniforms = _next_uniforms(_philox(seed, 0), 1)
    first_block = float(_first_block_times(scenario.mining, uniforms)[0])
    t_break = break_duration(scenario.attacker)
    wins = _attacker_wins(scenario.fee_policy, t_break, first_block)
    return RaceOutcome(
        winner=Winner.ATTACKER if wins else Winner.VICTIM,
        reveal_time=0.0,
        break_done_time=t_break,
        first_block_time=first_block,
    )


def race_win_count(
    scenario: AttackScenario, seed: int, start: int, stop: int, *, stream: int = 0
) -> int:
    """Attacker wins over trials [start, stop) of the (seed, stream) stream.

    Disjoint chunks sum to the full-range count, so trial batches may run
    concurrently and merge.  The range is drawn _CHUNK_TRIALS trials at a
    time, so memory does not grow with stop - start.
    """
    import numpy as np

    if not 0 <= start <= stop:
        raise ValueError(f"need 0 <= start <= stop, got [{start}, {stop})")
    t_break = break_duration(scenario.attacker)
    bitgen = _philox(seed, stream, start)
    wins = 0
    for chunk_start in range(start, stop, _CHUNK_TRIALS):
        uniforms = _next_uniforms(bitgen, min(_CHUNK_TRIALS, stop - chunk_start))
        first_block = _first_block_times(scenario.mining, uniforms)
        won = _attacker_wins(scenario.fee_policy, t_break, first_block)
        wins += int(np.count_nonzero(won))
        # Free this chunk's arrays before the next draw.  Kept alive, they
        # can push the free top of the heap past malloc's trim threshold,
        # and the pages it gives back are then faulted in again each chunk.
        del uniforms, first_block, won
    return wins


def success_probability_monte_carlo(
    scenario: AttackScenario, n_trials: int, seed: int, *, stream: int = 0
) -> tuple[float, float]:
    """Estimate the attacker-win probability and its binomial standard error."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    wins = race_win_count(scenario, seed, 0, n_trials, stream=stream)
    estimate = wins / n_trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / n_trials)
    return estimate, std_error


def sweep(
    scenario: AttackScenario, clock_range, n_trials: int, seed: int
) -> list[dict]:
    """Closed-form and Monte Carlo win probabilities across clock speeds.

    Row i uses substream i of the master seed, so rows are independent
    and each is reproducible from (seed, row index) alone.  Every clock
    is validated before any trial runs.
    """
    clocks = list(clock_range)
    if not clocks:
        raise ValueError("clock_range must be non-empty")
    row_scenarios = [
        replace(scenario, attacker=replace(scenario.attacker, effective_clock_hz=clock_hz))
        for clock_hz in clocks
    ]
    rows = []
    for index, (clock_hz, row_scenario) in enumerate(zip(clocks, row_scenarios)):
        estimate, std_error = success_probability_monte_carlo(
            row_scenario, n_trials, seed, stream=index
        )
        rows.append(
            {
                "clock_hz": clock_hz,
                "break_seconds": break_duration(row_scenario.attacker),
                "p_closed_form": success_probability_closed_form(row_scenario),
                "p_estimate": estimate,
                "std_error": std_error,
            }
        )
    return rows
