import itertools
import math
import random
import warnings
from decimal import Context
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qsafe.cli_report import run
from qsafe.jit_attack_sim import (
    _PACKED_BLOCKS,
    AttackScenario,
    FixedInterval,
    Memoryless,
    QuantumAttacker,
    _packed_below,
    _philox,
    _philox_key,
    _win_edge,
    break_duration,
    race_win_count,
    success_probability_closed_form,
    success_probability_monte_carlo,
    sweep,
)

BASELINE = QuantumAttacker(key_bits=256, effective_clock_hz=1000.0)
BAD_CLOCK = "effective_clock_hz must be finite and positive"


def test_break_duration_baseline():
    assert break_duration(BASELINE) == 65.536


def test_break_duration_scales_and_adds_overhead():
    fast = QuantumAttacker(key_bits=256, effective_clock_hz=1_000_000.0)
    assert break_duration(fast) == 0.065536
    slow = QuantumAttacker(key_bits=256, effective_clock_hz=1000.0, overhead_seconds=10.0)
    assert break_duration(slow) == 75.536
    assert break_duration(QuantumAttacker(key_bits=256, effective_clock_hz=1.0)) == 65_536.0
    assert break_duration(QuantumAttacker(key_bits=0)) == 0.0


def test_break_duration_rejects_nonpositive_clock():
    with pytest.raises(ValueError, match=BAD_CLOCK):
        break_duration(QuantumAttacker(key_bits=256, effective_clock_hz=0.0))
    with pytest.raises(ValueError, match=BAD_CLOCK):
        break_duration(QuantumAttacker(key_bits=256, effective_clock_hz=-5.0))


@pytest.mark.parametrize("key_bits", [256.5, 256.0])
def test_attacker_refuses_a_fractional_key_size(key_bits):
    # Whole bits, as the CLI parses them: a float is not squared into a
    # break time.
    with pytest.raises(TypeError):
        QuantumAttacker(key_bits=key_bits)


def test_attacker_validation():
    with pytest.raises(ValueError):
        QuantumAttacker(key_bits=-1)
    with pytest.raises(ValueError):
        QuantumAttacker(key_bits=256, overhead_seconds=-0.1)


@pytest.mark.parametrize(
    "attacker",
    [
        {"key_bits": 10**200},  # key_bits**2 overflows a float
        {"key_bits": 256, "effective_clock_hz": 5e-324},  # quotient is inf
        {"key_bits": 256, "overhead_seconds": 1e308, "effective_clock_hz": 6e-304},
    ],
    ids=["overflow", "inf-quotient", "inf-sum"],
)
def test_attacker_rejects_non_finite_break_time(attacker):
    with pytest.raises(ValueError):
        QuantumAttacker(**attacker)


def test_closed_form_fixed_interval():
    scenario = AttackScenario(BASELINE, FixedInterval())
    assert success_probability_closed_form(scenario) == 1.0 - 65.536 / 600.0
    # break slower than a whole interval: certain failure, clamped at zero
    crawl = AttackScenario(
        QuantumAttacker(key_bits=256, effective_clock_hz=100.0), FixedInterval()
    )
    assert success_probability_closed_form(crawl) == 0.0
    # boundary: break exactly one interval long already loses every race
    edge = AttackScenario(
        QuantumAttacker(key_bits=0, overhead_seconds=600.0), FixedInterval()
    )
    assert success_probability_closed_form(edge) == 0.0


def test_closed_form_memoryless():
    scenario = AttackScenario(BASELINE, Memoryless())
    assert success_probability_closed_form(scenario) == math.exp(-65.536 / 600.0)
    # no hard cutoff: even a day-long break keeps a sliver of probability
    glacial = AttackScenario(
        QuantumAttacker(key_bits=0, overhead_seconds=86_400.0), Memoryless()
    )
    assert success_probability_closed_form(glacial) > 0.0


def test_closed_form_is_monotone_in_clock():
    values = [
        success_probability_closed_form(
            AttackScenario(
                QuantumAttacker(key_bits=256, effective_clock_hz=hz), Memoryless()
            )
        )
        for hz in (10.0, 100.0, 1000.0, 10_000.0)
    ]
    assert values == sorted(values)


def exact_wins(mining, t_break, k):
    """Whether trial k wins, decided in exact arithmetic: the break ends
    no later than the first block, B * (1 - u) or -M * ln(1 - u) for the
    trial's uniform u = k * 2**-53."""
    t_break = Fraction(t_break)
    rest = Fraction(2**53 - k, 2**53)  # 1 - u: at most 53 decimal digits
    if isinstance(mining, FixedInterval):
        return t_break <= Fraction(mining.blocktime_seconds) * rest
    context = Context(prec=150)
    log = -Fraction(context.divide(rest.numerator, rest.denominator).ln(context))
    x = t_break / Fraction(mining.mean_blocktime_seconds)
    # -ln(1 - u) is within a relative 10**-149 of log; the test's inputs
    # never fall that close to it.
    assert x == log or abs(x - log) > log * Fraction(1, 10**140)
    return x <= log


def test_exact_tie_goes_to_the_attacker():
    # Trial 0's first block is exactly one interval away, and a break of
    # one interval still wins it, so the edge is 1 and not 0.
    tie = QuantumAttacker(0, overhead_seconds=600.0)
    assert _win_edge(FixedInterval(), break_duration(tie)) == (1, True)
    # An instant break ties trial 0's block at 0 seconds and wins it.
    assert _win_edge(Memoryless(), 0.0) == (2**53, True)


def test_winner_follows_tie_rule():
    pytest.importorskip("numpy")
    t_break = break_duration(BASELINE)
    ks = (_philox(_philox_key(3, 0), 0).random_raw(40) >> 11).tolist()
    for mining in (FixedInterval(), Memoryless()):
        edge, below = _win_edge(mining, t_break)
        on_edge_side = [(k < edge) == below for k in ks]
        assert on_edge_side == [exact_wins(mining, t_break, k) for k in ks]


def test_chunked_counts_merge_exactly():
    scenario = AttackScenario(BASELINE, Memoryless())
    total = race_win_count(scenario, seed=9, start=0, stop=30_000)
    pieces = (
        race_win_count(scenario, seed=9, start=0, stop=1)
        + race_win_count(scenario, seed=9, start=1, stop=11_111)
        + race_win_count(scenario, seed=9, start=11_111, stop=30_000)
    )
    assert total == pieces


def test_win_count_range_validation():
    scenario = AttackScenario(BASELINE, Memoryless())
    assert race_win_count(scenario, seed=1, start=10, stop=10) == 0
    with pytest.raises(ValueError):
        race_win_count(scenario, seed=1, start=-1, stop=5)
    with pytest.raises(ValueError):
        race_win_count(scenario, seed=1, start=6, stop=5)


@pytest.mark.parametrize("seed", [-1, 2**128])
@pytest.mark.parametrize(
    "attacker",
    [BASELINE, QuantumAttacker(key_bits=256, effective_clock_hz=100.0)],
    ids=["drawn", "certain"],
)
def test_win_count_refuses_seeds_outside_128_bits(seed, attacker):
    # Philox takes 128 bits of seed, so 2**128 would alias seed 0 and -1
    # seed 2**128 - 1; a row every trial decides alike checks it too.
    scenario = AttackScenario(attacker, FixedInterval())
    with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*128\), got {seed}"):
        race_win_count(scenario, seed=seed, start=0, stop=10)
    assert race_win_count(scenario, seed=2**128 - 1, start=0, stop=10) in range(11)


@pytest.mark.parametrize(
    "attacker", [BASELINE, QuantumAttacker(key_bits=0)], ids=["drawn", "certain"]
)
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda scenario: race_win_count(scenario, 42, 0, 5.5), TypeError),
        (lambda scenario: race_win_count(scenario, 42, 0.0, 5), TypeError),
        (lambda scenario: race_win_count(scenario, 42.0, 0, 5), TypeError),
        (lambda scenario: race_win_count(scenario, 42, 0, 5, stream=1.0), TypeError),
        (lambda scenario: race_win_count(scenario, 42, 0, 5, stream=-1), ValueError),
        (lambda scenario: success_probability_monte_carlo(scenario, 2.5, 42), TypeError),
    ],
    ids=["stop", "start", "seed", "stream", "negative-stream", "trials"],
)
def test_every_row_refuses_the_same_arguments(attacker, call, error):
    # An instant break wins every trial, so that row draws nothing.
    with pytest.raises(error):
        call(AttackScenario(attacker, FixedInterval()))


def test_streams_are_independent():
    pytest.importorskip("numpy")
    # Win counts of two streams can agree by chance (4472 of 5000 trials
    # each at seed 3), so compare their words, trial by trial.
    words = [_philox(_philox_key(3, stream), 0).random_raw(5000) for stream in (0, 1)]
    assert (words[0] != words[1]).all()


def test_monte_carlo_matches_closed_form():
    for mining in (FixedInterval(), Memoryless()):
        scenario = AttackScenario(BASELINE, mining)
        estimate, std_error = success_probability_monte_carlo(scenario, 200_000, seed=42)
        exact = success_probability_closed_form(scenario)
        assert abs(estimate - exact) < 5 * std_error
        assert std_error == math.sqrt(estimate * (1 - estimate) / 200_000)


def test_monte_carlo_certain_outcomes():
    instant = AttackScenario(QuantumAttacker(key_bits=0), Memoryless())
    estimate, std_error = success_probability_monte_carlo(instant, 1000, seed=1)
    assert estimate == 1.0 and std_error == 0.0
    hopeless = AttackScenario(
        QuantumAttacker(key_bits=256, effective_clock_hz=100.0), FixedInterval()
    )
    estimate, _ = success_probability_monte_carlo(hopeless, 1000, seed=1)
    assert estimate == 0.0
    two_intervals = AttackScenario(
        QuantumAttacker(key_bits=0, overhead_seconds=1200.0), FixedInterval()
    )
    estimate, _ = success_probability_monte_carlo(two_intervals, 1000, seed=1)
    assert estimate == 0.0


def test_monte_carlo_rejects_bad_trials():
    scenario = AttackScenario(BASELINE, Memoryless())
    with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
        success_probability_monte_carlo(scenario, 0, seed=1)


def test_sweep_rows_and_reproducibility():
    scenario = AttackScenario(BASELINE, Memoryless())
    rows = sweep(scenario, [1000.0, 10_000.0, 1_000_000.0], n_trials=20_000, seed=42)
    assert [row["clock_hz"] for row in rows] == [1000.0, 10_000.0, 1_000_000.0]
    assert rows[0]["break_seconds"] == 65.536
    assert rows[2]["break_seconds"] == 0.065536
    assert rows[2]["p_closed_form"] == math.exp(-0.065536 / 600.0)
    p_values = [row["p_closed_form"] for row in rows]
    assert p_values == sorted(p_values)
    for index, row in enumerate(rows):
        attacker = QuantumAttacker(key_bits=256, effective_clock_hz=row["clock_hz"])
        redo = success_probability_monte_carlo(
            AttackScenario(attacker, Memoryless()), 20_000, seed=42, stream=index
        )
        assert (row["p_estimate"], row["std_error"]) == redo


SWEEP_COLUMNS = [
    "key_bits", "clock_hz", "overhead_seconds", "break_seconds",
    "p_closed_form", "p_estimate", "std_error", "trials", "seed",
]


def test_sweep_rows_carry_the_attack_columns_but_mining(capsys):
    assert run(["attack", "--trials", "10"]) == 0
    assert capsys.readouterr().out.splitlines()[0].split(",") == ["mining", *SWEEP_COLUMNS]
    attacker = QuantumAttacker(key_bits=128, effective_clock_hz=1.0, overhead_seconds=2.5)
    rows = sweep(AttackScenario(attacker, Memoryless()), [1000.0, 50.0], n_trials=30, seed=7)
    assert [row["clock_hz"] for row in rows] == [1000.0, 50.0]
    for row in rows:
        assert list(row) == SWEEP_COLUMNS
        assert (row["key_bits"], row["overhead_seconds"], row["trials"], row["seed"]) == (
            128, 2.5, 30, 7,
        )


def test_sweep_rejects_empty_range():
    scenario = AttackScenario(BASELINE, Memoryless())
    with pytest.raises(ValueError):
        sweep(scenario, [], n_trials=10, seed=1)


def test_sweep_propagates_invalid_clock():
    scenario = AttackScenario(BASELINE, Memoryless())
    with pytest.raises(ValueError, match=BAD_CLOCK):
        sweep(scenario, [1000.0, 0.0], n_trials=10, seed=1)


@pytest.mark.parametrize("bad", [0.0, -600.0, math.nan, math.inf, -math.inf])
def test_mining_models_reject_blocktime_not_finite_and_positive(bad):
    with pytest.raises(ValueError, match="blocktime_seconds must be finite and positive"):
        FixedInterval(bad)
    with pytest.raises(ValueError, match="blocktime_seconds must be finite and positive"):
        Memoryless(bad)


@pytest.mark.parametrize("tiny", [5e-324, 1e-310])
def test_mining_models_accept_subnormal_block_times(tiny):
    assert FixedInterval(tiny).blocktime_seconds == tiny
    assert Memoryless(tiny).mean_blocktime_seconds == tiny


def test_a_subnormal_block_time_samples_its_closed_form():
    # A break as long as a 5e-324 s block: only trial 0 beats a fixed
    # block, and a memoryless one comes later with probability e**-1.
    attacker = QuantumAttacker(0, overhead_seconds=5e-324)
    assert _win_edge(FixedInterval(5e-324), break_duration(attacker)) == (1, True)
    edge, below = _win_edge(Memoryless(5e-324), break_duration(attacker))
    assert not below
    assert abs((2**53 - edge) / 2**53 - math.exp(-1)) <= 2**-53


@pytest.mark.parametrize("bad", [0.0, -5.0, math.nan, math.inf])
def test_attacker_rejects_clock_not_finite_and_positive(bad):
    with pytest.raises(ValueError, match=BAD_CLOCK):
        QuantumAttacker(key_bits=256, effective_clock_hz=bad)


@pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
def test_attacker_rejects_overhead_not_finite_and_non_negative(bad):
    with pytest.raises(ValueError):
        QuantumAttacker(key_bits=256, overhead_seconds=bad)


def test_sweep_validates_every_clock_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("trials drawn before every clock was checked")

    monkeypatch.setattr("qsafe.jit_attack_sim.success_probability_monte_carlo", no_draws)
    with pytest.raises(ValueError, match=BAD_CLOCK):
        sweep(AttackScenario(BASELINE, Memoryless()), [1000.0, math.nan], n_trials=10, seed=1)


@settings(max_examples=200, deadline=None)
@given(
    key_bits=st.integers(0, 4096),
    clock_hz=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    overhead=st.floats(min_value=0.0, allow_infinity=False),
    blocktime=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    memoryless=st.booleans(),
)
def test_closed_form_is_a_probability_for_every_accepted_input(
    key_bits, clock_hz, overhead, blocktime, memoryless
):
    if not math.isfinite(key_bits**2 / clock_hz + overhead):
        # A break time that is not finite is refused, not modelled.
        with pytest.raises(ValueError):
            QuantumAttacker(key_bits, effective_clock_hz=clock_hz, overhead_seconds=overhead)
        return
    attacker = QuantumAttacker(key_bits, effective_clock_hz=clock_hz, overhead_seconds=overhead)
    mining = Memoryless(blocktime) if memoryless else FixedInterval(blocktime)
    assert 0.0 <= success_probability_closed_form(AttackScenario(attacker, mining)) <= 1.0


def accepted_or_none(build, *args):
    try:
        return build(*args)
    except ValueError:
        return None


SECONDS = st.floats(min_value=0.0, allow_nan=False) | st.sampled_from([5e-324, 1e-300, 1e308])


@settings(max_examples=200, deadline=None)
@given(
    key_bits=st.integers(0, 2**600),
    clock_hz=SECONDS,
    overhead=SECONDS,
    blocktime=SECONDS,
    memoryless=st.booleans(),
    n_trials=st.integers(1, 2000),
    seed=st.integers(0, 2**128 - 1),
)
def test_every_probability_is_in_the_unit_interval(
    key_bits, clock_hz, overhead, blocktime, memoryless, n_trials, seed
):
    attacker = accepted_or_none(QuantumAttacker, key_bits, clock_hz, overhead)
    mining = accepted_or_none(Memoryless if memoryless else FixedInterval, blocktime)
    assume(attacker is not None and mining is not None)
    scenario = AttackScenario(attacker, mining)
    assert 0.0 <= success_probability_closed_form(scenario) <= 1.0
    estimate, std_error = success_probability_monte_carlo(scenario, n_trials, seed)
    assert 0.0 <= estimate <= 1.0
    assert math.isfinite(std_error) and std_error >= 0.0


# numpy's AVX-512 log1p and the C library's disagreed at the edge of
# Memoryless(36996.14669964138) against a 67174.67735184253 s break when
# the edge was bisected over a float rule: numpy's SIMD build put K at
# 7541542762941435, the C library's at ...436, the exact edge.
AVX512_MINING = Memoryless(36996.14669964138)
AVX512_BREAK = 67174.67735184253

EDGE_SCENARIOS = {
    "key_bits": st.integers(0, 512),
    "clock_hz": st.floats(1.0, 1e9),
    "overhead_blocks": st.floats(0.0, 2.0),
    "blocktime": st.floats(1.0, 1e5),
    "memoryless": st.booleans(),
}


def edge_scenario(key_bits, clock_hz, overhead_blocks, blocktime, memoryless):
    attacker = QuantumAttacker(
        key_bits, effective_clock_hz=clock_hz, overhead_seconds=overhead_blocks * blocktime
    )
    mining = Memoryless(blocktime) if memoryless else FixedInterval(blocktime)
    return AttackScenario(attacker, mining)


@settings(max_examples=300, deadline=None)
@given(**EDGE_SCENARIOS, ks=st.lists(st.integers(0, 2**53 - 1), min_size=8, max_size=64))
@example(key_bits=256, clock_hz=1000.0, overhead_blocks=0.0, blocktime=600.0,
         memoryless=True, ks=[0] * 8)
@example(key_bits=0, clock_hz=1.0, overhead_blocks=1.0, blocktime=600.0,
         memoryless=False, ks=[0] * 8)
@example(key_bits=0, clock_hz=1.0, overhead_blocks=AVX512_BREAK / AVX512_MINING.mean_blocktime_seconds,
         blocktime=AVX512_MINING.mean_blocktime_seconds, memoryless=True, ks=[0] * 8)
def test_win_edge_is_the_exact_rule(
    key_bits, clock_hz, overhead_blocks, blocktime, memoryless, ks
):
    scenario = edge_scenario(key_bits, clock_hz, overhead_blocks, blocktime, memoryless)
    t_break = break_duration(scenario.attacker)
    edge, below = _win_edge(scenario.mining, t_break)
    assert 1 <= edge <= 2**53
    ks = [k for k in range(edge - 2, edge + 3) if 0 <= k < 2**53] + ks
    assert [exact_wins(scenario.mining, t_break, k) for k in ks] == [
        (k < edge) == below for k in ks
    ]


@settings(max_examples=200, deadline=None)
@given(**EDGE_SCENARIOS, n_trials=st.integers(1, 5000), seed=st.integers(0, 2**128 - 1))
def test_estimate_is_within_a_bernstein_bound_of_the_sampled_probability(
    key_bits, clock_hz, overhead_blocks, blocktime, memoryless, n_trials, seed
):
    # Over its trials' k, a row wins with probability exactly K / 2**53,
    # or 1 - K / 2**53.  Bernstein's inequality for n such trials puts the
    # estimate within t of it, but for a chance of 10**-12.
    scenario = edge_scenario(key_bits, clock_hz, overhead_blocks, blocktime, memoryless)
    edge, below = _win_edge(scenario.mining, break_duration(scenario.attacker))
    sampled = (edge if below else 2**53 - edge) / 2**53
    estimate, _ = success_probability_monte_carlo(scenario, n_trials, seed)
    log_term = math.log(2 / 1e-12)
    variance = sampled * (1 - sampled)
    t = (log_term / 3 + math.sqrt(log_term**2 / 9 + 2 * n_trials * log_term * variance)) / n_trials
    assert abs(estimate - sampled) <= t


@settings(max_examples=500, deadline=None)
@given(
    key_bits=st.integers(0, 2**600),
    clock_hz=SECONDS,
    overhead=SECONDS,
    blocktime=SECONDS,
    memoryless=st.booleans(),
)
@example(key_bits=256, clock_hz=1000.0, overhead=0.0, blocktime=600.0, memoryless=False)
@example(key_bits=256, clock_hz=1000.0, overhead=0.0, blocktime=600.0, memoryless=True)
def test_win_edge_gives_the_closed_form(key_bits, clock_hz, overhead, blocktime, memoryless):
    # Over its trials' k, a row wins with probability exactly K / 2**53
    # (or 1 - K / 2**53), K being the edge.
    attacker = accepted_or_none(QuantumAttacker, key_bits, clock_hz, overhead)
    mining = accepted_or_none(Memoryless if memoryless else FixedInterval, blocktime)
    assume(attacker is not None and mining is not None)
    edge, below = _win_edge(mining, break_duration(attacker))
    sampled = (edge if below else 2**53 - edge) / 2**53
    exact = success_probability_closed_form(AttackScenario(attacker, mining))
    assert abs(sampled - exact) <= 2 * 2**-53


@pytest.mark.parametrize(
    "mining, t_break, expected",
    [
        # u <= 5/6 wins, k <= 7505999378950826.67.  (The float rule
        # 600 - u * 600 rounded k = ...827 to a win and gave ...828.)
        (FixedInterval(600.0), 100.0, (7505999378950827, True)),
        # numpy's AVX-512 log1p gave ...435 under the float rule.
        (AVX512_MINING, AVX512_BREAK, (7541542762941436, False)),
        # A break longer than the interval loses every trial.
        (FixedInterval(600.0), 600.5, (2**53, False)),
        # 2**53 * e**-36.7 is 1.04: only the last trial wins.
        (Memoryless(1.0), 36.7, (2**53 - 1, False)),
        # 2**53 * e**-37 is 0.77: none does.
        (Memoryless(1.0), 37.0, (2**53, False)),
    ],
    ids=["fixed-by-hand", "memoryless-avx512", "fixed-none", "memoryless-one", "memoryless-none"],
)
def test_win_edge_is_pinned(mining, t_break, expected):
    assert _win_edge(mining, t_break) == expected
    edge, below = expected
    for k in (edge - 1, edge):
        if k < 2**53:
            assert exact_wins(mining, t_break, k) == ((k < edge) == below)


def memoryless_edge_at_120_digits(mean, t_break):
    """_win_edge's memoryless rule with 2**53 * e**-x taken at 120 digits,
    whose error, below 10**-100, decides every floor drawn here."""
    x = Fraction(t_break) / Fraction(mean)
    context = Context(prec=120)
    scaled = Fraction(context.divide(-x.numerator, x.denominator).exp(context)) * 2**53
    low = math.floor(scaled)
    assert Fraction(1, 10**100) < scaled - low < 1 - Fraction(1, 10**100)
    return 2**53 - low, False


@pytest.mark.parametrize("digits", [6, 12])
def test_win_edge_slack_holds_from_a_low_first_precision(monkeypatch, digits):
    # Started at a few digits, the edge is right only if the slack is as
    # wide as _win_edge's comment argues; a tighter one returns a floor
    # that the first precision has not decided.
    monkeypatch.setattr("qsafe.jit_attack_sim._EXP_DIGITS", digits)
    rng = random.Random(digits)
    for _ in range(1000):
        t_break = rng.uniform(0, 37 * 600.0)
        assert _win_edge(Memoryless(600.0), t_break) == memoryless_edge_at_120_digits(
            600.0, t_break
        )


def test_win_edge_of_a_huge_mean_does_not_warn():
    # A first block near the float maximum, 1.7 means away.
    mining = Memoryless(1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _win_edge(mining, 1.7e308) == (7361732353039743, False)
    assert not exact_wins(mining, 1.7e308, 7361732353039742)
    assert exact_wins(mining, 1.7e308, 7361732353039743)


def test_certain_rows_draw_nothing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a certain row drew trials")

    monkeypatch.setattr("qsafe.jit_attack_sim._philox", no_draws)
    monkeypatch.setattr("qsafe.jit_attack_sim._packed_below", no_draws)
    hopeless = AttackScenario(
        QuantumAttacker(key_bits=256, effective_clock_hz=100.0), FixedInterval()
    )
    assert race_win_count(hopeless, seed=1, start=0, stop=10**12) == 0
    instant = AttackScenario(QuantumAttacker(key_bits=0), Memoryless())
    assert race_win_count(instant, seed=1, start=5, stop=10**12) == 10**12 - 5


MASK64 = 2**64 - 1


def philox4x64_10(counter, key):
    """Philox4x64-10 (Salmon et al., SC'11) of one counter block, written
    from the specification: the counter's 4 words and the key's 2, low
    word first, give 4 words in draw order."""
    x0, x1, x2, x3 = counter
    k0, k1 = key
    for _ in range(10):
        hi0, lo0 = divmod(0xD2E7470EE14C6C93 * x0, 2**64)
        hi1, lo1 = divmod(0xCA5A826395121157 * x2, 2**64)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) & MASK64, (k1 + 0xBB67AE8584CAA73B) & MASK64
    return x0, x1, x2, x3


def reference_words(key, start, stop):
    """Words [start, stop) of the stream keyed by key, one block at a
    time: block b is Philox of counter b + 1 mod 2**256."""
    words = []
    for block in range(start // 4, -(-stop // 4)):
        counter = (block + 1) % 2**256
        words += philox4x64_10([counter >> 64 * i & MASK64 for i in range(4)], key)
    return words[start % 4 : start % 4 + stop - start]


# Random123's known-answer vectors for Philox4x64-10.
@pytest.mark.parametrize(
    "counter, key, expected",
    [
        ((0, 0, 0, 0), (0, 0),
         (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)),
        ((MASK64,) * 4, (MASK64,) * 2,
         (0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)),
        ((0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89),
         (0x452821E638D01377, 0xBE5466CF34E90C6C),
         (0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6)),
    ],
    ids=["zeros", "ones", "pi"],
)
def test_scalar_philox_gives_the_known_answers(counter, key, expected):
    assert philox4x64_10(counter, key) == expected


# numpy's SeedSequence((seed, stream)).generate_state(2, np.uint64).
@pytest.mark.parametrize(
    "seed, stream, expected",
    [
        (42, 0, (0x9F1E2E6DCD540AB7, 0xD57873DC79FB94B6)),
        (2**128 - 1, 3, (0x4B1760FA05D1DA5B, 0x04F3CA3A38A9BC80)),
        (0, 2**40, (0x38276EA75EE2B443, 0xF60BD1F0DF203FA8)),
    ],
)
def test_philox_key_is_pinned(seed, stream, expected):
    assert _philox_key(seed, stream) == expected


def test_packed_blocks_is_a_power_of_two():
    # A piece of the pure kernel then never crosses a counter wrap.
    assert _PACKED_BLOCKS & (_PACKED_BLOCKS - 1) == 0


# Word 4 (c - 1) is the first of counter c; GRID's counter starts a
# piece whenever a range spans more than half of _PACKED_BLOCKS counters.
GRID = 4 * (3 * _PACKED_BLOCKS - 1)
PIECE = 4 * _PACKED_BLOCKS
PACKED_RANGES = [
    *((40 + a, 52 + b) for a, b in itertools.product(range(4), repeat=2)),
    *((40 + a, 41 + a) for a in range(4)),
    *((GRID + d, GRID + d + 3 * PIECE // 2) for d in (-1, 0, 1)),
    *((GRID + d - 3 * PIECE // 2, GRID + d) for d in (-1, 0, 1)),
    (GRID, GRID + PIECE),
    (4 * (2**64 - 1) - 1001, 4 * (2**64 - 1) + 1002),
    (4 * (2**256 - 1) - 1003, 4 * (2**256 - 1) + 1001),
]


@pytest.mark.parametrize("start, stop", PACKED_RANGES)
def test_packed_kernel_counts_what_the_scalar_reference_draws(start, stop):
    key = _philox_key(2**128 - 1, 3)
    words = reference_words(key, start, stop)
    assert len(words) == stop - start
    for word_edge in (0, 1, 2**63, 2**64):
        expected = sum(word < word_edge for word in words)
        assert _packed_below(key, start, stop, word_edge) == expected
