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
keyed by (seed, stream), for a seed in [0, 2**128).  Trial t is 64-bit
word t of that stream; its top 53 bits k are the trial's uniform
k * 2**-53, so the trials' uniforms are the doubles numpy's
``Generator.random`` draws from the same bit generator, in order.  The
first-block time is monotone in that uniform, so the trials a row's
attacker wins are exactly those with k on one side of an integer edge K,
which ``_win_edge`` computes once per row from the closed form in exact
arithmetic, against the break time the row prints.  A trial is then
decided by one integer compare of its raw word, and a row where every
trial decides alike draws nothing.  Any contiguous range of trials can
be counted independently and merged by summing win counts, bit-identical
to a single serial run.

``race_win_count`` counts a range with one of two kernels, which give
the same count.  numpy draws the range when it is already loaded, or
when the trials still to draw exceed ``_PURE_TRIALS`` and it can be
imported; ``sweep`` asks that for all its rows before the first.
Otherwise ``_packed_below`` counts it in pure Python, whatever its size:
Philox computes each counter block from the block's index alone, so
every block of a piece, one cell of a fixed grid of counters, is
computed at once, with each counter word's lanes packed 128 bits apart
in one Python int.  numpy draws in steps of whole counter blocks on a
fixed grid: the caller alone below ``_CHUNK_TRIALS`` trials, and
otherwise one worker thread per usable CPU, each taking the next step
as soon as it is free; a worker's bit generator starts at its first
step's block and advances by whole blocks to each later one.  Counts
are the same whatever the CPU count and whichever worker draws a step.
At most ``_CHUNK_TRIALS`` trials are in flight across all workers, and
at most ``_PACKED_BLOCKS`` blocks in the pure kernel, so memory is
bounded whatever the trial count and the CPU count.
Importing qsafe, its exact subcommands and a default ``attack`` never
load numpy, and without numpy every range is counted in pure Python.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from decimal import Context
from fractions import Fraction
from typing import TYPE_CHECKING

from . import _Record

if TYPE_CHECKING:
    import numpy as np


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


class QuantumAttacker(_Record):
    """Key-break capability: key size, effective logical clock, and any
    fixed key-download/broadcast latency."""

    key_bits: int
    effective_clock_hz: float = 1000.0
    overhead_seconds: float = 0.0

    def _check(self) -> None:
        # A whole number of bits: a float raises TypeError.
        object.__setattr__(self, "key_bits", operator.index(self.key_bits))
        if self.key_bits < 0:
            raise ValueError(f"key_bits must be >= 0, got {self.key_bits}")
        _check_positive("effective_clock_hz", self.effective_clock_hz)
        if not (math.isfinite(self.overhead_seconds) and self.overhead_seconds >= 0):
            raise ValueError(
                f"overhead_seconds must be finite and >= 0, got {self.overhead_seconds}"
            )
        try:
            finite = math.isfinite(break_duration(self))
        except OverflowError:  # key_bits**2 too large for a float
            finite = False
        if not finite:
            raise ValueError(
                "break time key_bits**2 / effective_clock_hz + overhead_seconds "
                "is not a finite number of seconds"
            )


class FixedInterval(_Record):
    """Blocks arrive on a strict clock; the victim's broadcast offset is
    uniform over one interval."""

    blocktime_seconds: float = 600.0

    def _check(self) -> None:
        _check_positive("blocktime_seconds", self.blocktime_seconds)


class Memoryless(_Record):
    """Exponential inter-block times with the given mean."""

    mean_blocktime_seconds: float = 600.0

    def _check(self) -> None:
        _check_positive("mean_blocktime_seconds", self.mean_blocktime_seconds)


MiningModel = FixedInterval | Memoryless


class AttackScenario(_Record):
    attacker: QuantumAttacker
    mining: MiningModel


def break_duration(attacker: QuantumAttacker) -> float:
    """Seconds to derive the private key: key_bits**2 gate cycles at the
    effective clock, plus fixed overhead."""
    return attacker.key_bits**2 / attacker.effective_clock_hz + attacker.overhead_seconds


def success_probability_closed_form(scenario: AttackScenario) -> float:
    """Exact attacker-win probability for the scenario's mining model.

    FixedInterval: max(0, 1 - T/B).  Memoryless: exp(-T/B).
    """
    t_break = break_duration(scenario.attacker)
    mining = scenario.mining
    if isinstance(mining, FixedInterval):
        return max(0.0, 1.0 - t_break / mining.blocktime_seconds)
    return math.exp(-t_break / mining.mean_blocktime_seconds)


# Philox emits 4 64-bit words per counter block, and its advance()
# counts blocks.
_WORDS_PER_BLOCK = 4

# race_win_count has at most this many trials, one word each, in flight
# across its workers, so its memory is about 0.5 MB whatever the size
# of its range.
_CHUNK_TRIALS = 1 << 16

# Fewest trials a worker draws per step; this caps the worker count at
# _CHUNK_TRIALS // _MIN_STEP_TRIALS.
_MIN_STEP_TRIALS = 1 << 13

# While numpy is not loaded, up to this many trials still to draw are
# counted in pure Python.  That kernel's cost grows with the trials
# drawn, however they are split into rows, and numpy's is mostly its
# import; in cold interpreters on a 2-vCPU shared VM the two broke even
# at 5.8-7.1 * 10**5 trials (five rounds of 21 runs).
_PURE_TRIALS = 1 << 19

# _packed_below computes this many counter blocks (2**11 trials) at a
# time, in ints of 8 KB, so it holds about 0.3 MB whatever its range.
_PACKED_BLOCKS = 1 << 9

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# Philox4x64-10's round multipliers and key increments (Salmon et al.,
# SC'11), as numpy's Philox uses them.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


def _philox_key(seed: int, stream: int) -> tuple[int, int]:
    """The Philox key of the (seed, stream) stream.

    A port of numpy's ``SeedSequence((seed, stream)).generate_state(2,
    np.uint64)``: the entropy is each value's 32-bit words, low first
    (0 is one word), hashed into a pool of 4 words, and the key is the
    pool hashed again.  ValueError for a negative value, as numpy.
    """
    entropy = []
    for value in (seed, stream):
        if value < 0:
            raise ValueError("expected non-negative integer")
        entropy.append(value & _MASK32)
        while value := value >> 32:
            entropy.append(value & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in (entropy + [0] * 4)[:4]]
    for source in range(4):
        for target in range(4):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    for word in entropy[4:]:
        for target in range(4):
            pool[target] = mix(pool[target], hashmix(word))
    state, hash_const = [], 0x8B51F9DD
    for word in pool:
        word ^= hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        word = word * hash_const & _MASK32
        state.append(word ^ word >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _packed_below(key: tuple[int, int], start: int, stop: int, word_edge: int) -> int:
    """Words [start, stop) of the Philox stream keyed by key that are
    below word_edge, for an edge in [0, 2**64].

    Block b is Philox of counter b + 1 mod 2**256, since numpy's Philox
    steps its counter before each block.  The kernel computes the range's
    counters in pieces on a fixed grid: a piece is ``lanes`` counters
    from a multiple of lanes, a power of two no larger than _PACKED_BLOCKS.
    Lane j of a packed int is bits [128 j, 128 j + 128), and each of the
    4 counter words is one int holding that word of every block, one
    block a lane.  A multiply then gives every lane's 128-bit product in
    its own lane, a shift and a mask split them into hi and lo words,
    and XOR with the round key times ``ones`` (a 1 in every lane) keys
    them all.

    A word w is below the edge E exactly when bit 64 of
    (E - 1 + 2**64) - w is set.  No lane borrows from the next, so one
    subtraction, shift and mask leaves each lane's answer in its bit 0,
    and int.bit_count counts them.  In a piece the range cuts, the
    lanes of each word outside [start, stop) are masked off first.
    """
    if start >= stop:
        return 0
    first, last = start // _WORDS_PER_BLOCK + 1, -(-stop // _WORDS_PER_BLOCK) + 1
    lanes = min(_PACKED_BLOCKS, 1 << (last - first - 1).bit_length())
    ones = int.from_bytes((b"\1" + bytes(15)) * lanes, "little")
    ramp = int.from_bytes(b"".join(j.to_bytes(16, "little") for j in range(lanes)), "little")
    low = ones * _MASK64
    edges = (word_edge - 1 + (1 << 64)) * ones
    # Every round key, broadcast to every lane: the same in each piece.
    round_keys = []
    k0, k1 = key
    for _ in range(_PHILOX_ROUNDS):
        round_keys.append((k0 * ones, k1 * ones))
        k0 = (k0 + _PHILOX_W[0]) & _MASK64
        k1 = (k1 + _PHILOX_W[1]) & _MASK64
    m0, m1 = _PHILOX_M
    below = 0
    # lanes is a power of two no larger than 2**64, so 2**64 and 2**256
    # are multiples of it: no piece crosses a wrap of the low counter
    # word or of the whole counter, and its upper words are the same in
    # all its lanes.
    for base in range(first - first % lanes, last, lanes):
        counter = base % (1 << 256)
        x0 = (counter & _MASK64) * ones + ramp
        x1 = (counter >> 64 & _MASK64) * ones
        x2 = (counter >> 128 & _MASK64) * ones
        x3 = (counter >> 192) * ones
        # x1 and x3 keep each lane's whole product; only their lo words
        # are ever used, and the next round's mask drops the hi ones.
        for key0, key1 in round_keys:
            p0, p1 = m0 * x0, m1 * x2
            x0, x1 = (p1 >> 64 ^ x1 ^ key0) & low, p1
            x2, x3 = (p0 >> 64 ^ x3 ^ key1) & low, p0
        for index, word in enumerate((x0, x1 & low, x2, x3 & low)):
            flags = (edges - word) >> 64 & ones
            # Lane j holds word w + 4 j: lanes [begin, end) are in the range.
            w = _WORDS_PER_BLOCK * (base - 1) + index
            begin = max(-((w - start) // _WORDS_PER_BLOCK), 0)
            end = min(-((w - stop) // _WORDS_PER_BLOCK), lanes)
            if begin or end < lanes:
                flags &= (1 << 128 * end) - (1 << 128 * begin)
            below += flags.bit_count()
    return below


def _philox(key: tuple[int, int], start: int) -> np.random.Philox:
    """numpy's bit generator of the stream keyed by key, at word start.
    numpy steps its counter before each block, so counter b mod 2**256
    yields block b first; the words before start in it are dropped."""
    import numpy as np

    bitgen = np.random.Philox(
        key=np.array(key, dtype=np.uint64), counter=(start // _WORDS_PER_BLOCK) % (1 << 256)
    )
    bitgen.random_raw(start % _WORDS_PER_BLOCK)
    return bitgen


def _win_edge(mining: MiningModel, t_break: float) -> tuple[int, bool]:
    """The edge K and side below of the trials the attacker wins.

    The attacker, outbidding on fees, wins when the break ends no later
    than the first block, which trial k's uniform u = k * 2**-53 puts at
    B * (1 - u) for FixedInterval(B) and -M * ln(1 - u) for Memoryless(M).
    So trial k wins exactly when (k < K) == below, with K from the closed
    form in exact arithmetic: floor(2**53 * (1 - T/B)) + 1 with below,
    or 2**53 - floor(2**53 * e**(-T/M)) without, for the break time T
    taken exactly.  K is 2**53 when every trial decides alike.
    """
    t_break = Fraction(t_break)
    if isinstance(mining, FixedInterval):
        share = 1 - t_break / Fraction(mining.blocktime_seconds)
        if share < 0:
            return 1 << 53, False
        return min(math.floor(share * 2**53) + 1, 1 << 53), True
    if t_break == 0:
        return 1 << 53, True
    x = t_break / Fraction(mining.mean_blocktime_seconds)
    if x >= 37:  # 2**53 * e**-37 < 1: no trial wins
        return 1 << 53, False
    digits = 40
    while True:
        # The quotient and exp are each within half a unit in their last
        # digit, and x < 37 magnifies the quotient's error in exp, so the
        # scaled value is within a relative 10**(3 - digits) of
        # 2**53 * e**-x.  That is irrational, so the loop ends.
        context = Context(prec=digits)
        scaled = Fraction(context.divide(-x.numerator, x.denominator).exp(context)) * 2**53
        slack = scaled / 10 ** (digits - 3)
        low = math.floor(scaled - slack)
        if low == math.floor(scaled + slack):
            return (1 << 53) - low, False
        digits *= 2


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(start: int, stop: int) -> tuple[int, int]:
    """Worker count and trials per step for the range [start, stop).

    The caller alone draws a range shorter than _CHUNK_TRIALS, where a
    thread costs more than it draws.  A longer one gets one worker per
    usable CPU, but no more than keeps a step at _MIN_STEP_TRIALS.
    """
    workers = 1
    if stop - start >= _CHUNK_TRIALS:
        workers = min(_usable_cpus(), _CHUNK_TRIALS // _MIN_STEP_TRIALS)
    return workers, _CHUNK_TRIALS // workers & -_WORDS_PER_BLOCK


def race_win_count(
    scenario: AttackScenario, seed: int, start: int, stop: int, *, stream: int = 0
) -> int:
    """Attacker wins over trials [start, stop) of the (seed, stream) stream.

    Disjoint chunks sum to the full-range count, so trial batches may run
    concurrently and merge.  _packed_below counts the range in pure
    Python unless _numpy_draws(stop - start).  numpy draws it in steps,
    the caller alone when it is shorter than _CHUNK_TRIALS trials, and
    otherwise one worker per usable CPU, the caller and a thread for
    each other one, each taking the next step as soon as it is free, so
    a slow CPU holds up no one.  At most _CHUNK_TRIALS trials are in
    flight at a time, so memory does not grow with stop - start.  After
    an error in any step no worker takes another, and the error is
    raised here once every thread has finished.  The two kernels give
    the same count.  TypeError for an argument that is not a whole
    number, and ValueError for a seed outside [0, 2**128) or a negative
    stream, even when no trial needs drawing.
    """
    # Whole numbers: a float raises TypeError.
    seed, stream, start, stop = map(operator.index, (seed, stream, start, stop))
    if not 0 <= start <= stop:
        raise ValueError(f"need 0 <= start <= stop, got [{start}, {stop})")
    # Streams are defined for seeds of at most 128 bits, and a larger one
    # would alias a smaller.  Checked before the early return below, so
    # every row refuses the same seeds and streams.
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    if stream < 0:
        raise ValueError(f"stream must be >= 0, got {stream}")
    # Workers call private helpers only, so wrappers around the public
    # functions see one call per race_win_count, from this thread.
    edge, below = _win_edge(scenario.mining, break_duration(scenario.attacker))
    if edge == 1 << 53:  # every trial decides alike: nothing to draw
        return stop - start if below else 0
    # A word is its trial's k followed by 11 more bits, so k < edge
    # exactly when the word is below edge << 11.
    word_edge = edge << 11
    key = _philox_key(seed, stream)
    if _numpy_draws(stop - start):
        count = _threaded_below(key, start, stop, word_edge)
    else:
        count = _packed_below(key, start, stop, word_edge)
    return count if below else stop - start - count


def _numpy_draws(trials: int) -> bool:
    """Whether numpy draws trials still to draw: it is loaded, or they
    exceed _PURE_TRIALS and it can be imported."""
    if sys.modules.get("numpy") is None and trials <= _PURE_TRIALS:
        return False
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _threaded_below(key: tuple[int, int], start: int, stop: int, word_edge: int) -> int:
    """Words [start, stop) of the stream keyed by key that are below
    word_edge, drawn by numpy as race_win_count describes.

    Step i is words [i * step, (i + 1) * step) clipped to the range, so
    only the first step can start inside a block.  Steps are handed out
    in increasing order, so a worker's bit generator, built at its first
    step, reaches each later one by advancing whole blocks.
    """
    import threading

    import numpy as np

    word_edge = np.uint64(word_edge)
    workers, step = _workers(start, stop)
    starts = iter(range(start - start % step, stop, step))
    lock = threading.Lock()
    failed = False
    results: list[int | BaseException] = [0] * workers

    def next_step() -> int | None:
        with lock:
            return None if failed else next(starts, None)

    def draw(index: int) -> None:
        nonlocal failed
        bitgen, position, below = None, 0, 0
        try:
            for step_start in iter(next_step, None):
                begin, end = max(step_start, start), min(step_start + step, stop)
                if bitgen is None:
                    bitgen = _philox(key, begin)
                else:
                    bitgen.advance((begin - position) // _WORDS_PER_BLOCK)
                # Draw and compare in one expression, so the step's words
                # are freed before the next draw.  Kept alive, they can push
                # the free top of the heap past malloc's trim threshold, and
                # the pages it gives back are then faulted in again each step.
                below += int(np.count_nonzero(bitgen.random_raw(end - begin) < word_edge))
                position = end
            results[index] = below
        except BaseException as exc:  # raised below, once every worker is done
            failed = True
            results[index] = exc

    threads = []
    try:
        for index in range(1, workers):
            thread = threading.Thread(target=draw, args=(index,), daemon=True)
            thread.start()
            threads.append(thread)
        draw(0)
    finally:
        for thread in threads:
            thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return sum(results)


def success_probability_monte_carlo(
    scenario: AttackScenario, n_trials: int, seed: int, *, stream: int = 0
) -> tuple[float, float]:
    """Estimate the attacker-win probability and its binomial standard error."""
    n_trials = operator.index(n_trials)
    if n_trials < 1:  # named as the CLI's --trials flag
        raise ValueError(f"trials must be >= 1, got {n_trials}")
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
    is validated before any trial runs.  _numpy_draws is asked for all
    the rows' trials before the first row, so that it may load numpy.
    """
    clocks = list(clock_range)
    if not clocks:
        raise ValueError("clock_range must be non-empty")
    row_scenarios = [
        scenario._replace(attacker=scenario.attacker._replace(effective_clock_hz=clock_hz))
        for clock_hz in clocks
    ]
    _numpy_draws(len(clocks) * n_trials)
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
