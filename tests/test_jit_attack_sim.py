import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsafe.jit_attack_sim import (
    AttackScenario,
    FeePolicy,
    FixedInterval,
    InvalidClock,
    Memoryless,
    QuantumAttacker,
    _attacker_wins,
    _first_block_times,
    _next_uniforms,
    _philox,
    break_duration,
    race_win_count,
    success_probability_closed_form,
    success_probability_monte_carlo,
    sweep,
)

BASELINE = QuantumAttacker(key_bits=256, effective_clock_hz=1000.0)


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
    with pytest.raises(InvalidClock):
        break_duration(QuantumAttacker(key_bits=256, effective_clock_hz=0.0))
    with pytest.raises(InvalidClock):
        break_duration(QuantumAttacker(key_bits=256, effective_clock_hz=-5.0))


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


def first_block_times(mining, seed, n):
    """First-block times of trials 0..n-1 of the seed's stream 0."""
    return _first_block_times(mining, _next_uniforms(_philox(seed, 0), n))


def test_first_block_times_are_deterministic():
    for mining in (FixedInterval(), Memoryless()):
        once = first_block_times(mining, 5, 50)
        assert once.tobytes() == first_block_times(mining, 5, 50).tobytes()


def test_first_block_times_depend_on_seed():
    times = {float(first_block_times(Memoryless(), s, 1)[0]) for s in range(8)}
    assert len(times) == 8


def test_exact_tie_goes_by_fee_policy():
    assert _attacker_wins(FeePolicy.ATTACKER_OUTBIDS, 65.536, 65.536)
    assert not _attacker_wins(FeePolicy.VICTIM_WINS_TIES, 65.536, 65.536)
    assert _attacker_wins(FeePolicy.ATTACKER_OUTBIDS, 0.0, 0.0)
    assert not _attacker_wins(FeePolicy.VICTIM_WINS_TIES, 0.0, 0.0)


def test_winner_follows_tie_rule():
    t_break = break_duration(BASELINE)
    for policy, rule in (
        (FeePolicy.ATTACKER_OUTBIDS, lambda t, b: t <= b),
        (FeePolicy.VICTIM_WINS_TIES, lambda t, b: t < b),
    ):
        for mining in (FixedInterval(), Memoryless()):
            times = first_block_times(mining, 3, 40)
            won = _attacker_wins(policy, t_break, times)
            assert list(won) == [rule(t_break, b) for b in times]


def test_first_block_time_ranges():
    for seed in range(50):
        fixed = first_block_times(FixedInterval(), seed, 20)
        assert ((0.0 < fixed) & (fixed <= 600.0)).all()
        assert (first_block_times(Memoryless(), seed, 20) >= 0.0).all()


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


def test_streams_are_independent():
    scenario = AttackScenario(BASELINE, Memoryless())
    a = race_win_count(scenario, seed=3, start=0, stop=5000, stream=0)
    b = race_win_count(scenario, seed=3, start=0, stop=5000, stream=1)
    assert a != b


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
    with pytest.raises(ValueError):
        success_probability_monte_carlo(scenario, 0, seed=1)


def test_fee_policies_agree_off_ties():
    # exact break/block ties have measure zero, so the tie rule does not
    # move the counts on any realistic draw
    for policy in (FeePolicy.ATTACKER_OUTBIDS, FeePolicy.VICTIM_WINS_TIES):
        scenario = AttackScenario(BASELINE, Memoryless(), fee_policy=policy)
        assert race_win_count(scenario, seed=13, start=0, stop=20_000) == race_win_count(
            AttackScenario(BASELINE, Memoryless()), seed=13, start=0, stop=20_000
        )


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


def test_sweep_rejects_empty_range():
    scenario = AttackScenario(BASELINE, Memoryless())
    with pytest.raises(ValueError):
        sweep(scenario, [], n_trials=10, seed=1)


def test_sweep_propagates_invalid_clock():
    scenario = AttackScenario(BASELINE, Memoryless())
    with pytest.raises(InvalidClock):
        sweep(scenario, [1000.0, 0.0], n_trials=10, seed=1)


@pytest.mark.parametrize("bad", [0.0, -600.0, math.nan, math.inf, -math.inf])
def test_mining_models_reject_blocktime_not_finite_and_positive(bad):
    with pytest.raises(ValueError):
        FixedInterval(bad)
    with pytest.raises(ValueError):
        Memoryless(bad)


@pytest.mark.parametrize("bad", [0.0, -5.0, math.nan, math.inf])
def test_attacker_rejects_clock_not_finite_and_positive(bad):
    with pytest.raises(InvalidClock):
        QuantumAttacker(key_bits=256, effective_clock_hz=bad)


@pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
def test_attacker_rejects_overhead_not_finite_and_non_negative(bad):
    with pytest.raises(ValueError):
        QuantumAttacker(key_bits=256, overhead_seconds=bad)


def test_sweep_validates_every_clock_before_drawing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("trials drawn before every clock was checked")

    monkeypatch.setattr("qsafe.jit_attack_sim.success_probability_monte_carlo", no_draws)
    with pytest.raises(InvalidClock):
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
