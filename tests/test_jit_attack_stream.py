"""The Philox trial stream behind race_win_count, pinned to its first
definition, and the chunked draw's merge identity and memory bound."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsafe.jit_attack_sim import (
    _CHUNK_TRIALS,
    AttackScenario,
    FixedInterval,
    Memoryless,
    QuantumAttacker,
    Winner,
    _next_uniforms,
    _philox,
    race_once,
    race_win_count,
)

BASELINE = QuantumAttacker(key_bits=256, effective_clock_hz=1000.0)
CHUNK = _CHUNK_TRIALS
COUNTS = (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5)


def reference_uniforms(seed, stream, start, count):
    """The stream as first defined: Generator.random draws 4 doubles per
    counter block and each trial keeps the first."""
    entropy = seed & ((1 << 128) - 1)
    key = np.random.SeedSequence((entropy, stream)).generate_state(2, np.uint64)
    bitgen = np.random.Philox(key=key)
    if start:
        bitgen.advance(start)
    return np.random.Generator(bitgen).random(4 * count)[::4]


@pytest.mark.parametrize("seed", [42, -1, -(2**70) + 3, 2**128, 2**128 + 42, 2**200 + 5])
@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("start", [0, 1, 70_000])
def test_uniforms_match_reference_stream_bit_for_bit(seed, stream, start):
    for count in COUNTS:
        expected = reference_uniforms(seed, stream, start, count).tobytes()
        whole = _next_uniforms(_philox(seed, stream, start), count)
        assert whole.tobytes() == expected
        # drawn the way race_win_count draws: successive chunks of one bit generator
        bitgen = _philox(seed, stream, start)
        chunks = [_next_uniforms(bitgen, min(CHUNK, count - at)) for at in range(0, count, CHUNK)]
        assert np.concatenate(chunks).tobytes() == expected


# Counts over trials [70_000, 200_001), which starts inside the second
# chunk and ends inside the fourth, computed from the whole-range draw
# that preceded chunking.
@pytest.mark.parametrize(
    "mining, seed, stream, wins",
    [
        (FixedInterval(), 42, 0, 115_725),
        (FixedInterval(), 42, 1, 115_735),
        (FixedInterval(), -7, 3, 115_916),
        (Memoryless(), 42, 0, 116_712),
        (Memoryless(), 42, 1, 116_646),
        (Memoryless(), -7, 3, 116_268),
    ],
)
def test_win_counts_are_pinned_across_chunk_boundaries(mining, seed, stream, wins):
    scenario = AttackScenario(BASELINE, mining)
    assert race_win_count(scenario, seed, 70_000, 200_001, stream=stream) == wins


def test_race_once_is_trial_zero_of_stream_zero():
    for mining in (FixedInterval(), Memoryless()):
        scenario = AttackScenario(BASELINE, mining)
        for seed in range(20):
            attacker_won = race_once(scenario, seed).winner is Winner.ATTACKER
            assert race_win_count(scenario, seed, 0, 1) == int(attacker_won)


CUTS = st.one_of(
    st.integers(0, 3 * CHUNK + 10),
    st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK + 1]),
)


@settings(max_examples=40, deadline=None)
@given(
    cuts=st.lists(CUTS, min_size=2, max_size=6),
    mining=st.sampled_from([FixedInterval(), Memoryless()]),
    seed=st.integers(-(2**130), 2**130),
    stream=st.integers(0, 3),
)
@example(cuts=[0, CHUNK - 1, CHUNK + 1, 3 * CHUNK + 5], mining=Memoryless(), seed=9, stream=0)
@example(cuts=[1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK + 1], mining=FixedInterval(), seed=-3, stream=1)
def test_chunk_counts_merge_to_whole_range(cuts, mining, seed, stream):
    scenario = AttackScenario(BASELINE, mining)
    bounds = sorted(cuts)
    whole = race_win_count(scenario, seed, bounds[0], bounds[-1], stream=stream)
    pieces = sum(
        race_win_count(scenario, seed, a, b, stream=stream) for a, b in zip(bounds, bounds[1:])
    )
    assert pieces == whole


@pytest.mark.parametrize("mining", [FixedInterval(), Memoryless()], ids=["fixed", "memoryless"])
def test_win_count_memory_is_bounded_by_the_chunk(mining):
    scenario = AttackScenario(BASELINE, mining)
    tracemalloc.start()
    try:
        race_win_count(scenario, seed=1, start=0, stop=1 << 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-range draw of 2**22 trials peaks near 192 MB
    assert peak < 8 * 2**20


# Minor page faults over repeated draws in a fresh interpreter, per chunk.
FAULT_PROBE = """
import resource
from qsafe.jit_attack_sim import (
    _CHUNK_TRIALS, AttackScenario, Memoryless, QuantumAttacker, race_win_count,
)
scenario = AttackScenario(QuantumAttacker(256), Memoryless())
race_win_count(scenario, 1, 0, 1 << 22)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(4):
    race_win_count(scenario, seed, 0, 1 << 22)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print((after - before) / (4 * (1 << 22) // _CHUNK_TRIALS))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="glibc heap trimming")
def test_win_count_reuses_its_pages_from_chunk_to_chunk():
    # A chunk allocates about 3 MB.  If its arrays outlive the next draw,
    # malloc can trim the heap and fault the pages in again every chunk:
    # 30 to 140 pages a chunk, depending on when numpy was imported.
    result = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE], capture_output=True, text=True, check=True
    )
    assert float(result.stdout) < 16
