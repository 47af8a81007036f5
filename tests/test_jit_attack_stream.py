"""The Philox trial stream behind race_win_count, pinned to numpy's own
draws (trial t is word t of the stream, and its uniform the t-th double
of Generator.random), positioning at any word, the chunked draw's merge
identity and memory bound, and its independence from the number of
worker threads.  The pure-Python kernel's key and counts are pinned bit
for bit to numpy's SeedSequence and Philox.

This process has numpy loaded, so race_win_count itself always takes
the numpy kernel here: the pure kernel's helpers are called directly,
or race_win_count in a fresh interpreter.  Where numpy cannot be
imported, the whole file is skipped."""

import json
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsafe import jit_attack_sim
from qsafe.jit_attack_sim import (
    _CHUNK_TRIALS,
    _MIN_STEP_TRIALS,
    _PURE_TRIALS,
    AttackScenario,
    FixedInterval,
    Memoryless,
    QuantumAttacker,
    _numpy_draws,
    _packed_below,
    _philox,
    _philox_key,
    _win_edge,
    _workers,
    break_duration,
    race_win_count,
)

np = pytest.importorskip("numpy")

BASELINE = QuantumAttacker(key_bits=256, effective_clock_hz=1000.0)
CHUNK = _CHUNK_TRIALS
COUNTS = (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5)


def stream_key(seed, stream):
    return np.random.SeedSequence((seed, stream)).generate_state(2, np.uint64)


def reference_uniforms(seed, stream, start, count):
    """Uniforms of trials [start, start + count): doubles start on of one
    continuous Generator.random draw of the stream, so nothing in it
    positions a bit generator."""
    generator = np.random.Generator(np.random.Philox(key=stream_key(seed, stream)))
    return generator.random(start + count)[start:]


def next_uniforms(bitgen, count):
    """Uniforms of the next count trials, converted from the words
    race_win_count draws: (word >> 11) * 2**-53."""
    return (bitgen.random_raw(count) >> 11) * 2.0**-53


@pytest.mark.parametrize("seed", [42, 0, 5, 2**64, 2**128 - 2**70 + 3, 2**128 - 1])
@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("start", [0, 1, 3, 70_000, 70_001])
def test_uniforms_match_reference_stream_bit_for_bit(seed, stream, start):
    for count in COUNTS:
        expected = reference_uniforms(seed, stream, start, count).tobytes()
        whole = next_uniforms(_philox(_philox_key(seed, stream), start), count)
        assert whole.tobytes() == expected
        # drawn in successive chunks of one bit generator
        bitgen = _philox(_philox_key(seed, stream), start)
        chunks = [next_uniforms(bitgen, min(CHUNK, count - at)) for at in range(0, count, CHUNK)]
        assert np.concatenate(chunks).tobytes() == expected


# A word up to 40 words above a block that may lie far into the stream,
# or just before the low counter word or the whole 256-bit counter wraps:
# _philox lands where one continuous draw from the stream's start is.
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**128 - 1),
    stream=st.integers(0, 3),
    base_block=st.one_of(
        st.just(0),
        st.integers(0, 2**62),
        st.sampled_from([2**64, 2**256]).flatmap(lambda wrap: st.integers(wrap - 12, wrap + 2)),
    ),
    word=st.integers(0, 40),
)
@example(seed=42, stream=0, base_block=0, word=0)
@example(seed=42, stream=0, base_block=0, word=3)
@example(seed=42, stream=1, base_block=0, word=4)
@example(seed=42, stream=1, base_block=0, word=6)
@example(seed=42, stream=1, base_block=0, word=13)
@example(seed=42, stream=0, base_block=2**64 - 1, word=5)
@example(seed=42, stream=1, base_block=2**256 - 1, word=5)
def test_positioning_at_any_word_equals_one_continuous_draw(seed, stream, base_block, word):
    bitgen = np.random.Philox(key=stream_key(seed, stream))
    bitgen.advance(base_block)  # at base_block's first word, mod 2**256 blocks
    continuous = bitgen.random_raw(word + 8)
    positioned = _philox(_philox_key(seed, stream), 4 * base_block + word)
    assert (positioned.random_raw(8) == continuous[word:]).all()


def reference_wins(mining, seed, stream, start, stop):
    """Wins over trials [start, stop) by the float rule on reference_uniforms:
    the break ends no later than the first block."""
    uniforms = reference_uniforms(seed, stream, start, stop - start)
    if isinstance(mining, FixedInterval):
        times = mining.blocktime_seconds - uniforms * mining.blocktime_seconds
    else:
        times = -mining.mean_blocktime_seconds * np.log1p(-uniforms)
    return int(np.count_nonzero(256**2 / 1000.0 <= times))


# Counts over trials [70_000, 200_001), which starts inside the second
# chunk and ends inside the fourth, computed by reference_wins from the
# whole-range reference draw.
@pytest.mark.parametrize(
    "mining, seed, stream, wins",
    [
        (FixedInterval(), 42, 0, 115_858),
        (FixedInterval(), 42, 1, 115_724),
        (FixedInterval(), 2**128 - 7, 3, 115_890),
        (Memoryless(), 42, 0, 116_583),
        (Memoryless(), 42, 1, 116_426),
        (Memoryless(), 2**128 - 7, 3, 116_592),
    ],
)
def test_win_counts_are_pinned_across_chunk_boundaries(mining, seed, stream, wins):
    assert reference_wins(mining, seed, stream, 70_000, 200_001) == wins
    scenario = AttackScenario(BASELINE, mining)
    assert race_win_count(scenario, seed, 70_000, 200_001, stream=stream) == wins
    # the pure kernel, on the same range of at most _PURE_TRIALS trials
    assert 200_001 - 70_000 <= _PURE_TRIALS
    edge, below = _win_edge(mining, break_duration(BASELINE))
    count = _packed_below(_philox_key(seed, stream), 70_000, 200_001, edge << 11)
    assert (count if below else 200_001 - 70_000 - count) == wins


@settings(max_examples=300, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**128 - 1), st.sampled_from([0, 2**32 - 1, 2**32, 2**128 - 1])),
    stream=st.one_of(st.integers(0, 2**64), st.sampled_from([0, 1, 2**32, 2**64 - 1])),
)
def test_philox_key_is_numpys_seed_sequence(seed, stream):
    assert _philox_key(seed, stream) == tuple(int(word) for word in stream_key(seed, stream))


@pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1)])
def test_philox_key_refuses_negative_values_as_numpy_does(seed, stream):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        stream_key(seed, stream)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _philox_key(seed, stream)


def reference_below(seed, stream, start, length, word_edge):
    """Words [start, start + length) of the stream below word_edge, drawn
    by numpy's Philox from numpy's own key, for an edge in [0, 2**64]."""
    bitgen = np.random.Philox(key=stream_key(seed, stream))
    bitgen.advance(start // 4)  # numpy's advance wraps at 2**256 blocks
    words = bitgen.random_raw(start % 4 + length)[start % 4 :]
    if word_edge == 2**64:
        return length
    return int(np.count_nonzero(words < np.uint64(word_edge)))


# Word starts just before the low counter word wraps (block 2**64 - 1
# has counter 2**64) and just before the 256-bit counter wraps (block
# 2**256 - 1 has counter 0), where a piece of the pure kernel's grid
# always ends.
WRAPS = st.sampled_from([4 * 2**64, 4 * 2**128, 4 * 2**256]).flatmap(
    lambda wrap: st.integers(wrap - 4 * 2**12, wrap + 4 * 2**12)
)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**128 - 1),
    stream=st.integers(0, 3),
    start=st.one_of(st.integers(0, 2**20), st.integers(0, 2**258), WRAPS),
    length=st.one_of(
        st.integers(0, 64),
        st.integers(0, 2**17),
        st.sampled_from([2**11 - 1, 2**11, 2**11 + 1, 2**17]),
    ),
    word_edge=st.one_of(st.integers(0, 2**64), st.sampled_from([0, 1, 2**63, 2**64 - 1, 2**64])),
)
@example(seed=42, stream=0, start=0, length=0, word_edge=2**63)
@example(seed=42, stream=0, start=4 * 2**64 - 4 * 600 - 3, length=2**17, word_edge=2**63)
@example(seed=42, stream=1, start=4 * 2**256 - 4 * 600 - 1, length=2**17, word_edge=2**63)
@example(seed=2**128 - 1, stream=3, start=2**258, length=7, word_edge=2**64)
def test_packed_kernel_counts_what_numpy_draws(seed, stream, start, length, word_edge):
    count = _packed_below(_philox_key(seed, stream), start, start + length, word_edge)
    assert count == reference_below(seed, stream, start, length, word_edge)


def test_packed_kernel_memory_is_bounded():
    # The same bound as the numpy kernel's: the pure kernel holds a few
    # ints of _PACKED_BLOCKS lanes, not one per trial.
    key = _philox_key(1, 0)
    _packed_below(key, 0, 8, 2**63)
    tracemalloc.start()
    try:
        _packed_below(key, 0, _PURE_TRIALS, 2**63)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# race_win_count over the rows given as JSON, in a fresh interpreter that
# never loads numpy, so every range of at most _PURE_TRIALS trials is
# counted by the pure kernel.
PURE_PROBE = """
import json, sys
from qsafe import jit_attack_sim
counts = [
    jit_attack_sim.race_win_count(
        jit_attack_sim.AttackScenario(
            jit_attack_sim.QuantumAttacker(256, clock), getattr(jit_attack_sim, mining)()
        ),
        seed, start, stop, stream=stream,
    )
    for clock, mining, seed, stream, start, stop in json.loads(sys.argv[1])
]
assert "numpy" not in sys.modules
print(json.dumps(counts))
"""
PURE_ROWS = [
    (1000.0, "Memoryless", 42, 0, 0, 100_000),
    (1000.0, "FixedInterval", 42, 0, 0, _PURE_TRIALS),
    (300.0, "Memoryless", 2**128 - 7, 3, 70_000, 200_001),
    (5000.0, "FixedInterval", 9, 1, 3, 4),
    (700.0, "Memoryless", 5, 2, 2**70 + 1, 2**70 + 9_999),
    # Unaligned ranges of several steps across the low counter word's
    # wrap, across the 256-bit counter's wrap, and beyond it.
    (1000.0, "FixedInterval", 42, 0, 4 * 2**64 - 70_001, 4 * 2**64 + 80_002),
    (1000.0, "Memoryless", 7, 1, 4 * 2**256 - 70_003, 4 * 2**256 + 80_001),
    (300.0, "Memoryless", 2**128 - 7, 3, 2**258 + 2**70 + 3, 2**258 + 2**70 + 150_000),
]


def test_both_kernels_count_alike():
    result = subprocess.run(
        [sys.executable, "-c", PURE_PROBE, json.dumps(PURE_ROWS)],
        capture_output=True, text=True, check=True,
    )
    expected = [
        race_win_count(
            AttackScenario(QuantumAttacker(256, clock), getattr(jit_attack_sim, mining)()),
            seed, start, stop, stream=stream,
        )
        for clock, mining, seed, stream, start, stop in PURE_ROWS
    ]
    assert json.loads(result.stdout) == expected


def test_numpy_draws_once_loaded_and_never_when_it_cannot_be_imported(monkeypatch):
    assert _numpy_draws(0) and _numpy_draws(_PURE_TRIALS + 1)  # loaded in this process
    # A None entry makes "import numpy" raise ImportError.
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert not _numpy_draws(_PURE_TRIALS) and not _numpy_draws(2**40)


CUTS = st.one_of(
    st.integers(0, 3 * CHUNK + 10),
    st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK + 1]),
)


@settings(max_examples=40, deadline=None)
@given(
    cuts=st.lists(CUTS, min_size=2, max_size=6),
    mining=st.sampled_from([FixedInterval(), Memoryless()]),
    seed=st.integers(0, 2**128 - 1),
    stream=st.integers(0, 3),
)
@example(cuts=[0, CHUNK - 1, CHUNK + 1, 3 * CHUNK + 5], mining=Memoryless(), seed=9, stream=0)
@example(cuts=[1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK + 1], mining=FixedInterval(), seed=2**128 - 3, stream=1)
def test_chunk_counts_merge_to_whole_range(cuts, mining, seed, stream):
    scenario = AttackScenario(BASELINE, mining)
    bounds = sorted(cuts)
    whole = race_win_count(scenario, seed, bounds[0], bounds[-1], stream=stream)
    pieces = sum(
        race_win_count(scenario, seed, a, b, stream=stream) for a, b in zip(bounds, bounds[1:])
    )
    assert pieces == whole


def usable_cpus(count):
    """Make race_win_count see count usable CPUs."""
    return mock.patch.object(jit_attack_sim, "_usable_cpus", return_value=count)


@settings(max_examples=200, deadline=None)
@given(
    cpus=st.integers(1, 20),
    start=st.integers(0, 2**40),
    length=st.one_of(
        st.integers(0, 20 * CHUNK),
        st.sampled_from([_MIN_STEP_TRIALS - 1, _MIN_STEP_TRIALS, CHUNK // 2, CHUNK // 2 + 1,
                         CHUNK - 1, CHUNK, CHUNK + 1]),
    ),
)
@example(cpus=2, start=0, length=CHUNK // 2 + 1)
@example(cpus=2, start=3, length=CHUNK - 1)
@example(cpus=2, start=3, length=CHUNK)
def test_workers_fit_the_cpus_and_the_range(cpus, start, length):
    with usable_cpus(cpus):
        workers, step = _workers(start, start + length)
    assert 1 <= workers <= min(cpus, CHUNK // _MIN_STEP_TRIALS)
    assert step == CHUNK // workers & -4 >= _MIN_STEP_TRIALS  # whole blocks
    assert workers == 1 or workers <= -(-length // step)  # never more workers than steps
    # The caller alone below a chunk, where a thread costs more than it draws.
    expected = 1 if length < CHUNK else min(cpus, CHUNK // _MIN_STEP_TRIALS)
    assert (workers, step) == (expected, CHUNK // expected & -4)


def with_lengths(workers):
    """(workers, range length): lengths shorter than one step; lengths a
    chunk longer than a step boundary, or than one where every worker
    has had as many steps, and a trial either side of those; and
    arbitrary ones.  The added chunk puts each boundary in a range that
    more than one worker draws."""
    with usable_cpus(workers):
        step = _workers(0, 2**40)[1]
    boundaries = [CHUNK + k * step + d for k in (1, 2, workers - 1, workers, 2 * workers + 1)
                  for d in (-1, 0, 1)]
    lengths = st.one_of(st.sampled_from([1, step - 1, *boundaries]), st.integers(0, 4 * CHUNK))
    return st.tuples(st.just(workers), lengths)


@settings(max_examples=60, deadline=None)
@given(
    workers_length=st.sampled_from([2, 3, 5]).flatmap(with_lengths),
    mining=st.sampled_from([FixedInterval(), Memoryless()]),
    seed=st.integers(0, 2**128 - 1),
    stream=st.integers(0, 3),
    start=st.one_of(st.integers(0, 3 * CHUNK), st.sampled_from([CHUNK - 1, CHUNK])),
)
@example(workers_length=(2, CHUNK), mining=Memoryless(), seed=42, stream=0, start=0)
@example(workers_length=(3, 3 * (CHUNK // 3) + 1), mining=FixedInterval(),
         seed=2**128 - 7, stream=3, start=CHUNK - 1)
@example(workers_length=(5, CHUNK + CHUNK // 5 - 1), mining=FixedInterval(),
         seed=1, stream=1, start=70_000)
def test_win_counts_do_not_depend_on_the_worker_count(
    workers_length, mining, seed, stream, start
):
    workers, length = workers_length
    scenario = AttackScenario(BASELINE, mining)
    with usable_cpus(1):
        expected = race_win_count(scenario, seed, start, start + length, stream=stream)
    with usable_cpus(workers):
        assert race_win_count(scenario, seed, start, start + length, stream=stream) == expected


class GatedBitGen:
    """A worker's bit generator: its first draw waits until every worker
    has taken a step, so each draws at least one, then fails if fail()."""

    def __init__(self, bitgen, gate, fail):
        self.bitgen, self.gate, self.fail = bitgen, gate, fail

    def advance(self, delta):
        self.bitgen.advance(delta)

    def random_raw(self, size):
        gate, self.gate = self.gate, None
        if gate is not None:
            gate.wait()
            if self.fail():
                raise RuntimeError("draw failed")
        return self.bitgen.random_raw(size)


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_worker_error_reaches_the_caller(monkeypatch, failing):
    scenario = AttackScenario(BASELINE, Memoryless())
    stop = 9 * CHUNK
    monkeypatch.setattr(jit_attack_sim, "_usable_cpus", lambda: 3)
    assert _workers(0, stop)[0] == 3
    gate = threading.Barrier(3, timeout=30)
    failed = []
    lock = threading.Lock()

    def fail():
        # the caller, or the first of the worker threads
        in_caller = threading.current_thread() is threading.main_thread()
        with lock:
            if in_caller == (failing == "caller") and not failed:
                failed.append(threading.current_thread())
                return True
        return False

    def philox(key, start):
        return GatedBitGen(_philox(key, start), gate, fail)

    monkeypatch.setattr(jit_attack_sim, "_philox", philox)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="draw failed"):
        race_win_count(scenario, 1, 0, stop)
    assert len(failed) == 1
    assert threading.active_count() == before


def win_count_peak(mining):
    """tracemalloc peak of one race_win_count over 2**22 trials, after a
    first draw has made the one-time imports (numpy loads numpy.random
    on first use)."""
    scenario = AttackScenario(BASELINE, mining)
    race_win_count(scenario, seed=1, start=0, stop=CHUNK)
    tracemalloc.start()
    try:
        race_win_count(scenario, seed=1, start=0, stop=1 << 22)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mining", [FixedInterval(), Memoryless()], ids=["fixed", "memoryless"])
def test_win_count_memory_is_bounded_by_the_chunk(mining):
    # At the machine's own worker count.  A whole-range draw of 2**22
    # trials would hold 32 MB of words, and a chunk drawn at 4 words a
    # trial peaks near 2 MB.
    assert win_count_peak(mining) < 2**20


@pytest.mark.parametrize("mining", [FixedInterval(), Memoryless()], ids=["fixed", "memoryless"])
def test_win_count_memory_does_not_grow_with_the_worker_count(monkeypatch, mining):
    most_workers = CHUNK // _MIN_STEP_TRIALS
    monkeypatch.setattr(jit_attack_sim, "_usable_cpus", lambda: most_workers)
    assert _workers(0, 1 << 22)[0] == most_workers
    assert win_count_peak(mining) < 2**20


# Minor page faults over repeated draws in a fresh interpreter, per step
# drawn.  An argument sets the number of usable CPUs.
FAULT_PROBE = """
import resource
import sys
from qsafe import jit_attack_sim
from qsafe.jit_attack_sim import AttackScenario, Memoryless, QuantumAttacker, race_win_count
if len(sys.argv) > 1:
    jit_attack_sim._usable_cpus = lambda: int(sys.argv[1])
scenario = AttackScenario(QuantumAttacker(256), Memoryless())
race_win_count(scenario, 1, 0, 1 << 22)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(4):
    race_win_count(scenario, seed, 0, 1 << 22)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
workers, step = jit_attack_sim._workers(0, 1 << 22)
steps = -(-(1 << 22) // step)
print((after - before) / (4 * steps))
"""


def faults_per_step(*argv):
    result = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE, *argv], capture_output=True, text=True, check=True
    )
    return float(result.stdout)


# A step allocates up to about 0.6 MB.  If its arrays outlive the next
# draw, malloc can trim the heap and fault the pages in again every step:
# 30 to 140 pages a step when a trial took 4 words, depending on when
# numpy was imported.
@pytest.mark.skipif(sys.platform != "linux", reason="glibc heap trimming")
def test_win_count_reuses_its_pages_from_chunk_to_chunk():
    assert faults_per_step() < 16  # at the machine's own worker count


@pytest.mark.skipif(sys.platform != "linux", reason="glibc heap trimming")
def test_win_count_reuses_its_pages_at_two_workers():
    assert faults_per_step("2") < 16
