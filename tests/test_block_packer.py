import random

import pytest

from qsafe.block_packer import (
    InfeasibleBlock,
    PackingMode,
    UpgradeScheme,
    blocks_required,
    fixed_overhead,
    mega_capacity,
    per_block_capacity,
    per_input_weight,
    standalone_upgrade_weight,
)
from qsafe.weight_model import NetworkParams

ECDSA = UpgradeScheme.ECDSA_SEGWIT
SCHNORR = UpgradeScheme.SCHNORR_TAPROOT
MEGA = PackingMode.MEGA_TRANSACTION
ONE = PackingMode.ONE_PER_TRANSACTION


def test_derived_costs():
    assert per_input_weight(ECDSA) == 235
    assert fixed_overhead(ECDSA) == 210
    assert per_input_weight(SCHNORR) == 168
    assert fixed_overhead(SCHNORR) == 277
    assert standalone_upgrade_weight() == 445


def test_default_capacities():
    assert per_block_capacity(ECDSA, MEGA) == 17_020
    assert per_block_capacity(SCHNORR, MEGA) == 23_807
    assert per_block_capacity(ECDSA, ONE) == 8_988
    # the standalone transaction is scheme-independent
    assert per_block_capacity(SCHNORR, ONE) == 8_988


def test_capacity_fills_but_never_overfills():
    for scheme in (ECDSA, SCHNORR):
        cap = per_block_capacity(scheme, MEGA)
        per_input = per_input_weight(scheme)
        overhead = fixed_overhead(scheme)
        assert overhead + cap * per_input <= 4_000_000
        assert overhead + (cap + 1) * per_input > 4_000_000


def test_mega_capacity_bracket_randomized():
    rng = random.Random(417)
    for _ in range(500):
        per_input = rng.randrange(1, 5000)
        overhead = rng.randrange(0, 100_000)
        limit = rng.randrange(overhead + 1, 8_000_000)
        params = NetworkParams(block_weight_limit=limit)
        cap = mega_capacity(per_input, overhead, params)
        assert overhead + cap * per_input <= limit
        assert overhead + (cap + 1) * per_input > limit


def test_capacity_monotonicity():
    rng = random.Random(64)
    for _ in range(200):
        per_input = rng.randrange(1, 2000)
        overhead = rng.randrange(0, 1000)
        limit = rng.randrange(overhead + 1, 2_000_000)
        params = NetworkParams(block_weight_limit=limit)
        cap = mega_capacity(per_input, overhead, params)
        # non-increasing in per-input weight
        assert mega_capacity(per_input + 1, overhead, params) <= cap
        # non-decreasing in the block weight limit
        wider = NetworkParams(block_weight_limit=limit + rng.randrange(1, 10_000))
        assert mega_capacity(per_input, overhead, wider) >= cap


def test_mega_capacity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mega_capacity(0, 10)
    with pytest.raises(InfeasibleBlock):
        mega_capacity(235, 210, NetworkParams(block_weight_limit=210))


@pytest.mark.parametrize("mode", [MEGA, ONE], ids=["mega", "one-per-tx"])
@pytest.mark.parametrize("limit", [300, 444])
def test_capacity_below_one_upgrade_raises(mode, limit):
    # 300 WU fits the 210-WU mega overhead but no 235-WU input; 444 WU is
    # one short of a standalone upgrade.  Neither may report capacity 0.
    params = NetworkParams(block_weight_limit=limit)
    assert mega_capacity(per_input_weight(ECDSA), fixed_overhead(ECDSA), params) == 0
    with pytest.raises(InfeasibleBlock, match="not even one"):
        per_block_capacity(ECDSA, mode, params)
    with pytest.raises(InfeasibleBlock):
        blocks_required(1, ECDSA, mode, params)


def test_blocks_required_exact_counts():
    assert blocks_required(186_676_874, ECDSA, MEGA) == 10_969
    assert blocks_required(186_676_874, SCHNORR, MEGA) == 7_842
    assert blocks_required(186_676_874, ECDSA, ONE) == 20_770
    assert blocks_required(0, ECDSA, MEGA) == 0
    assert blocks_required(1, ECDSA, MEGA) == 1
    assert blocks_required(17_020, ECDSA, MEGA) == 1
    assert blocks_required(17_021, ECDSA, MEGA) == 2


def test_blocks_required_ceiling_bracket_randomized():
    rng = random.Random(88)
    for _ in range(1000):
        n = rng.randrange(0, 10**9)
        limit = rng.randrange(100, 10_000_000)
        params = NetworkParams(block_weight_limit=limit)
        scheme = rng.choice((ECDSA, SCHNORR))
        try:
            cap = per_block_capacity(scheme, MEGA, params)
        except InfeasibleBlock:
            with pytest.raises(InfeasibleBlock):
                blocks_required(n, scheme, MEGA, params)
            continue
        blocks = blocks_required(n, scheme, MEGA, params)
        assert blocks * cap >= n
        if n > 0:
            assert (blocks - 1) * cap < n


def test_blocks_required_rejects_negative():
    with pytest.raises(ValueError):
        blocks_required(-1, ECDSA, MEGA)


def test_reserves_shrink_capacity():
    params = NetworkParams(apply_reserves=True)
    assert per_block_capacity(ECDSA, MEGA, params) == (4_000_000 - 332 - 210) // 235
    assert per_block_capacity(ECDSA, MEGA, params) <= per_block_capacity(ECDSA, MEGA)

