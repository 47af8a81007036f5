import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsafe.block_packer import (
    InfeasibleBlock,
    PackingMode,
    UpgradeScheme,
    blocks_required,
    per_block_capacity,
)
from qsafe.migration_planner import (
    DEFAULT_SNAPSHOT,
    EveryKthBlock,
    FractionOfEachBlock,
    UtxoSnapshot,
    bandwidth_table,
    lower_bound_duration,
    mixed_duration,
    throttled_schedule,
)
from qsafe.weight_model import DEFAULT_PARAMS, NetworkParams

ECDSA = UpgradeScheme.ECDSA_SEGWIT
SCHNORR = UpgradeScheme.SCHNORR_TAPROOT

BANDWIDTHS = st.fractions(0, 1, max_denominator=10**6).filter(bool)


def enumerate_schedule(snapshot, scheme, style, params=DEFAULT_PARAMS):
    """Per-block upgrade allocations, filled one block at a time until the
    backlog is empty: the planner's original loop, kept as the reference
    for the run-length timeline."""
    capacity = per_block_capacity(scheme, PackingMode.MEGA_TRANSACTION, params)
    allocations = []
    remaining = snapshot.total
    if isinstance(style, EveryKthBlock):
        block_index = 0
        while remaining > 0:
            block_index += 1
            packed = min(remaining, capacity) if block_index % style.k == 0 else 0
            remaining -= packed
            allocations.append(packed)
    else:
        share = int(capacity * style.fraction)
        if share < 1:
            raise ValueError(f"fraction {style.fraction} floors to zero")
        while remaining > 0:
            packed = min(remaining, share)
            remaining -= packed
            allocations.append(packed)
    return tuple(allocations)


def expand(timeline):
    """Per-block allocations of a run-length timeline, in block order."""
    idle = (0,) * (timeline.stride - 1)
    allocations = (idle + (timeline.share,)) * timeline.full_blocks
    if timeline.tail:
        allocations += idle + (timeline.tail,)
    return allocations


def outcome(function, *args):
    """The function's result, or the type of the ValueError it raised."""
    try:
        return function(*args)
    except ValueError as exc:
        return type(exc)


def test_default_snapshot():
    assert DEFAULT_SNAPSHOT.total == 186_676_874
    assert DEFAULT_SNAPSHOT.schnorr_fraction == 0


def test_snapshot_validation():
    with pytest.raises(ValueError):
        UtxoSnapshot("now", -1)
    with pytest.raises(ValueError):
        UtxoSnapshot("now", 10, schnorr_fraction=1.5)


@pytest.mark.parametrize(
    "total, fraction",
    [
        (10.5, 0),
        (True, 0),
        ("10", 0),
        (10, float("nan")),
        (10, float("inf")),
        (10, True),
        (10, "0.3"),
        (10, None),
        (10, -Fraction(1, 10)),
    ],
)
def test_snapshot_rejects_bad_types_with_value_error(total, fraction):
    # ValueError, never TypeError: the CLI reports ValueError as bad input.
    with pytest.raises(ValueError):
        UtxoSnapshot("now", total, schnorr_fraction=fraction)


def test_snapshot_accepts_exact_and_float_fractions():
    assert UtxoSnapshot("now", 10, Fraction(3, 10)).schnorr_fraction == Fraction(3, 10)
    assert UtxoSnapshot("now", 0, 1.0).schnorr_fraction == 1


def test_full_bandwidth_bounds_are_exact():
    hours_e = lower_bound_duration(DEFAULT_SNAPSHOT, ECDSA, 1)
    hours_s = lower_bound_duration(DEFAULT_SNAPSHOT, SCHNORR, 1)
    assert hours_e == Fraction(10_969 * 600, 3600)
    assert hours_s == Fraction(7_842 * 600, 3600) == 1307


def test_inverse_bandwidth_scaling_is_exact():
    rng = random.Random(52)
    full = lower_bound_duration(DEFAULT_SNAPSHOT, ECDSA, 1)
    for _ in range(100):
        bandwidth = Fraction(rng.randrange(1, 1000), 1000)
        scaled = lower_bound_duration(DEFAULT_SNAPSHOT, ECDSA, bandwidth)
        assert scaled * bandwidth == full


def test_empty_snapshot_is_all_zero():
    empty = UtxoSnapshot("t", 0)
    assert lower_bound_duration(empty, ECDSA, 1) == 0
    assert mixed_duration(empty, 1) == 0
    row = bandwidth_table(empty, [1])[0]
    assert row["ecdsa_hours"] == row["schnorr_hours"] == 0
    assert row["ecdsa_days"] == row["schnorr_days"] == 0


def test_half_schnorr_pool_lands_midway():
    snap = UtxoSnapshot("t", DEFAULT_SNAPSHOT.total, Fraction(1, 2))
    hours = mixed_duration(snap, 1)
    assert hours == (Fraction(10_969, 6) + 1307) / 2
    assert abs(float(hours) - 1567.38) / 1567.38 <= 1e-3


def test_duration_monotonicity():
    rng = random.Random(23)
    for _ in range(100):
        total = rng.randrange(0, 10**9)
        more = total + rng.randrange(1, 10**6)
        assert lower_bound_duration(
            UtxoSnapshot("t", total), ECDSA, 1
        ) <= lower_bound_duration(UtxoSnapshot("t", more), ECDSA, 1)
        f = Fraction(rng.randrange(0, 1000), 1000)
        snap_low = UtxoSnapshot("t", total, f)
        snap_high = UtxoSnapshot("t", total, f + Fraction(1, 1000))
        assert mixed_duration(snap_high, 1) <= mixed_duration(snap_low, 1)
        narrow = Fraction(rng.randrange(1, 1000), 1000)
        assert lower_bound_duration(
            UtxoSnapshot("t", total), ECDSA, narrow
        ) >= lower_bound_duration(UtxoSnapshot("t", total), ECDSA, 1)


def test_bandwidth_out_of_range():
    for bad in (0, -1, Fraction(5, 4), 2):
        with pytest.raises(ValueError, match=r"bandwidth must be in \(0, 1\]"):
            lower_bound_duration(DEFAULT_SNAPSHOT, ECDSA, bad)


def test_bandwidth_table_shape_and_scaling():
    rows = bandwidth_table(
        DEFAULT_SNAPSHOT, [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1]
    )
    assert [r["bandwidth"] for r in rows] == [
        Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1,
    ]
    full = rows[-1]
    assert rows[0]["ecdsa_hours"] == 4 * full["ecdsa_hours"]
    assert rows[1]["schnorr_hours"] == 2 * full["schnorr_hours"]
    for row in rows:
        assert row["ecdsa_days"] * 24 == row["ecdsa_hours"]
        assert row["schnorr_days"] * 24 == row["schnorr_hours"]


def test_mixed_duration_is_affine_with_pure_endpoints():
    zero = UtxoSnapshot("t", DEFAULT_SNAPSHOT.total, 0)
    one = UtxoSnapshot("t", DEFAULT_SNAPSHOT.total, 1)
    assert mixed_duration(zero, 1) == lower_bound_duration(zero, ECDSA, 1)
    assert mixed_duration(one, 1) == lower_bound_duration(one, SCHNORR, 1)
    rng = random.Random(19)
    t_e = lower_bound_duration(zero, ECDSA, 1)
    t_s = lower_bound_duration(zero, SCHNORR, 1)
    for _ in range(100):
        f = Fraction(rng.randrange(0, 1001), 1000)
        snap = UtxoSnapshot("t", DEFAULT_SNAPSHOT.total, f)
        assert mixed_duration(snap, 1) == (1 - f) * t_e + f * t_s


def test_mixed_duration_is_an_interpolation_not_a_bound():
    # At f = 3/10, packing each pool on its own in whole blocks takes
    # longer than the interpolation says.
    f = Fraction(3, 10)
    total = DEFAULT_SNAPSHOT.total
    schnorr = int(f * total)
    blocks = blocks_required(total - schnorr, ECDSA) + blocks_required(schnorr, SCHNORR)
    assert blocks == 10_031
    separate = Fraction(blocks * 600, 3600)
    mixed = mixed_duration(UtxoSnapshot("t", total, f), 1)
    assert mixed == (1 - f) * Fraction(10_969, 6) + f * 1307
    assert mixed < separate
    assert (round(float(mixed), 2), round(float(separate), 2)) == (1671.82, 1671.83)


def test_every_kth_schedule_small():
    snap = UtxoSnapshot("t", 17_020)
    assert expand(throttled_schedule(snap, ECDSA, EveryKthBlock(1))) == (17_020,)
    timeline = throttled_schedule(snap, ECDSA, EveryKthBlock(2))
    assert expand(timeline) == (0, 17_020)
    assert timeline.blocks_elapsed == 2
    assert timeline.upgrade_blocks == 1
    assert timeline.total_upgraded == 17_020
    assert timeline.duration_hours == Fraction(1200, 3600)
    two_blocks = throttled_schedule(
        UtxoSnapshot("t", 34_040), ECDSA, EveryKthBlock(2)
    )
    assert expand(two_blocks) == (0, 17_020, 0, 17_020)
    assert two_blocks.upgrade_blocks == 2


def test_fraction_schedule_small():
    snap = UtxoSnapshot("t", 17_020)
    timeline = throttled_schedule(snap, ECDSA, FractionOfEachBlock(Fraction(1, 2)))
    assert expand(timeline) == (8_510, 8_510)
    assert timeline.blocks_elapsed == 2


def test_fraction_schedule_partial_tail():
    snap = UtxoSnapshot("t", 17_021)
    timeline = throttled_schedule(snap, ECDSA, FractionOfEachBlock(Fraction(1, 2)))
    assert expand(timeline) == (8_510, 8_510, 1)
    assert timeline.total_upgraded == 17_021


def test_every_kth_matches_bound_exactly():
    # full blocks every k'th position: elapsed time equals the 1/k bound
    rng = random.Random(7)
    for _ in range(50):
        total = rng.randrange(1, 10**6)
        k = rng.randrange(1, 9)
        snap = UtxoSnapshot("t", total)
        timeline = throttled_schedule(snap, ECDSA, EveryKthBlock(k))
        bound = lower_bound_duration(snap, ECDSA, Fraction(1, k))
        assert timeline.duration_hours == bound
        assert timeline.total_upgraded == total


def test_fraction_schedule_tracks_every_kth_when_share_is_exact():
    # when k divides the capacity the styles move at the same rate; the
    # fraction style only saves blocks on the partial tail
    rng = random.Random(11)
    capacity = per_block_capacity(ECDSA, PackingMode.MEGA_TRANSACTION)
    exact_ks = [k for k in range(2, 9) if capacity % k == 0]
    assert exact_ks  # 17,020 is divisible by 2, 4, 5
    for _ in range(50):
        total = rng.randrange(1, 10**8)
        k = rng.choice(exact_ks)
        snap = UtxoSnapshot("t", total)
        fraction = throttled_schedule(snap, ECDSA, FractionOfEachBlock(Fraction(1, k)))
        kth = throttled_schedule(snap, ECDSA, EveryKthBlock(k))
        assert fraction.total_upgraded == kth.total_upgraded == total
        assert all(a <= capacity // k for a in expand(fraction))
        assert fraction.blocks_elapsed <= kth.blocks_elapsed
        assert kth.blocks_elapsed - fraction.blocks_elapsed < k


def test_fraction_schedule_floored_share_can_lag_every_kth():
    # 3 does not divide 17,020, so the whole-upgrade floor loses a sliver
    # of bandwidth each block and the last block slips past the k'th grid
    snap = UtxoSnapshot("t", 17_020)
    fraction = throttled_schedule(snap, ECDSA, FractionOfEachBlock(Fraction(1, 3)))
    kth = throttled_schedule(snap, ECDSA, EveryKthBlock(3))
    assert kth.blocks_elapsed == 3
    assert fraction.blocks_elapsed == 4
    assert fraction.total_upgraded == kth.total_upgraded == 17_020


def test_fraction_schedule_rejects_zero_share():
    for total in (100, 0):
        with pytest.raises(ValueError, match="floors to zero upgrades per block"):
            throttled_schedule(
                UtxoSnapshot("t", total), ECDSA, FractionOfEachBlock(Fraction(1, 100_000))
            )


@pytest.mark.parametrize("limit", [300, 100], ids=["no-input-fits", "no-overhead-fits"])
@pytest.mark.parametrize("style", [EveryKthBlock(2), FractionOfEachBlock(Fraction(1, 2))])
def test_schedule_rejects_zero_capacity(limit, style):
    params = NetworkParams(block_weight_limit=limit)
    for total in (100, 0):
        with pytest.raises(InfeasibleBlock):
            throttled_schedule(UtxoSnapshot("t", total), ECDSA, style, params)


STYLES = st.one_of(
    st.integers(1, 12).map(EveryKthBlock),
    BANDWIDTHS.map(FractionOfEachBlock),
)
PARAMS = st.sampled_from([
    DEFAULT_PARAMS,
    NetworkParams(apply_reserves=True),
    NetworkParams(block_weight_limit=40_000, blocktime_seconds=30),
    NetworkParams(block_weight_limit=300),  # fits the overhead, no input
    NetworkParams(block_weight_limit=100),  # not even the overhead
])


@settings(max_examples=300, deadline=None)
@given(
    total=st.integers(0, 200_000),
    scheme=st.sampled_from(UpgradeScheme),
    style=STYLES,
    params=PARAMS,
)
@example(total=0, scheme=ECDSA, style=FractionOfEachBlock(Fraction(1, 10**5)),
         params=DEFAULT_PARAMS)
@example(total=5, scheme=SCHNORR, style=EveryKthBlock(3),
         params=NetworkParams(block_weight_limit=300))
@example(total=0, scheme=ECDSA, style=EveryKthBlock(12), params=DEFAULT_PARAMS)
@example(total=200_000, scheme=ECDSA, style=EveryKthBlock(12),
         params=NetworkParams(block_weight_limit=40_000, blocktime_seconds=30))
def test_timeline_matches_block_by_block_enumeration(total, scheme, style, params):
    snap = UtxoSnapshot("t", total)
    expected = outcome(enumerate_schedule, snap, scheme, style, params)
    timeline = outcome(throttled_schedule, snap, scheme, style, params)
    if isinstance(expected, type):
        assert timeline is expected
        return
    blocktime = params.blocktime_seconds
    assert expand(timeline) == expected
    assert timeline.blocks_elapsed == len(expected)
    assert timeline.upgrade_blocks == sum(1 for a in expected if a > 0)
    assert timeline.total_upgraded == sum(expected) == total
    assert timeline.duration_hours == Fraction(len(expected) * blocktime, 3600)


def test_schedule_memory_does_not_depend_on_k():
    for style in (EveryKthBlock(1000), FractionOfEachBlock(Fraction(1, 100))):
        tracemalloc.start()
        try:
            throttled_schedule(DEFAULT_SNAPSHOT, ECDSA, style)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, style
    timeline = throttled_schedule(DEFAULT_SNAPSHOT, ECDSA, EveryKthBlock(10**12))
    assert timeline.blocks_elapsed == 10**12 * 10_969
    assert timeline.duration_hours == 10**12 * lower_bound_duration(DEFAULT_SNAPSHOT, ECDSA, 1)


def test_schedule_style_validation():
    with pytest.raises(ValueError, match="k must be >= 1"):
        EveryKthBlock(0)
    with pytest.raises(TypeError):
        EveryKthBlock(2.5)
    with pytest.raises(ValueError, match=r"bandwidth must be in \(0, 1\]"):
        FractionOfEachBlock(Fraction(3, 2))



@settings(max_examples=200, deadline=None)
@given(
    total=st.integers(0, 10**12),
    more=st.integers(0, 10**9),
    bandwidths=st.lists(BANDWIDTHS, min_size=2, max_size=2).map(sorted),
    scheme=st.sampled_from(UpgradeScheme),
)
def test_lower_bound_is_monotone_in_bandwidth_and_total(total, more, bandwidths, scheme):
    narrow, wide = bandwidths
    snap, bigger = UtxoSnapshot("t", total), UtxoSnapshot("t", total + more)
    assert lower_bound_duration(snap, scheme, wide) <= lower_bound_duration(snap, scheme, narrow)
    assert lower_bound_duration(snap, scheme, narrow) <= lower_bound_duration(
        bigger, scheme, narrow
    )
