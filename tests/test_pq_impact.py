from fractions import Fraction

import pytest

from qsafe.block_packer import InfeasibleBlock, PackingMode, UpgradeScheme, per_block_capacity
from qsafe.pq_impact import (
    PqScheme,
    post_upgrade_layout,
    post_upgrade_transaction_weight,
    signature_ratio,
    throughput_slowdown,
    transactions_per_block,
)
from qsafe.weight_model import FieldKind, NetworkParams, transaction_weight


def test_signature_bits():
    assert PqScheme.CRYSTALS_DILITHIUM.signature_bits == 19_360
    assert PqScheme.FALCON.signature_bits == 5_328
    assert PqScheme.SPHINCS_PLUS.signature_bits == 62_848
    assert PqScheme.ECDSA_256.signature_bits == 512


def test_signature_ratios_exact():
    assert signature_ratio(PqScheme.CRYSTALS_DILITHIUM) == Fraction(605, 16)
    assert signature_ratio(PqScheme.FALCON) == Fraction(333, 32)
    assert float(signature_ratio(PqScheme.FALCON)) == 10.40625
    assert signature_ratio(PqScheme.SPHINCS_PLUS) == Fraction(491, 4)
    assert signature_ratio(PqScheme.ECDSA_256) == 1


def test_post_upgrade_layout_only_witness_changes():
    for scheme in PqScheme:
        layout = post_upgrade_layout(scheme)
        witnesses = [e for e in layout if e.kind is FieldKind.WITNESS_DATA]
        assert len(witnesses) == 1
        assert witnesses[0].size_bytes == 67 + (scheme.signature_bits - 512) // 8
        others = [e for e in layout if e.kind is not FieldKind.WITNESS_DATA]
        assert sum(e.size_bytes for e in others) == 163 - 67


def test_post_upgrade_weights():
    assert post_upgrade_transaction_weight(PqScheme.ECDSA_256) == 445
    assert post_upgrade_transaction_weight(PqScheme.CRYSTALS_DILITHIUM) == 2_801
    assert post_upgrade_transaction_weight(PqScheme.FALCON) == 1_047
    assert post_upgrade_transaction_weight(PqScheme.SPHINCS_PLUS) == 8_237


def test_transactions_per_block():
    assert transactions_per_block(PqScheme.ECDSA_256) == 8_988
    assert transactions_per_block(PqScheme.CRYSTALS_DILITHIUM) == 1_428
    assert transactions_per_block(PqScheme.FALCON) == 3_820
    assert transactions_per_block(PqScheme.SPHINCS_PLUS) == 485


def test_throughput_slowdowns_exact():
    assert throughput_slowdown(PqScheme.ECDSA_256) == 1
    assert throughput_slowdown(PqScheme.CRYSTALS_DILITHIUM) == Fraction(8988, 1428)
    assert throughput_slowdown(PqScheme.FALCON) == Fraction(8988, 3820)
    assert throughput_slowdown(PqScheme.SPHINCS_PLUS) == Fraction(8988, 485)


def test_slowdown_never_exceeds_signature_ratio():
    # only witness bytes grow and they weigh 1 WU, so capacity shrinks
    # slower than signatures do
    for scheme in PqScheme:
        assert throughput_slowdown(scheme) <= signature_ratio(scheme)


def test_both_metrics_increase_with_signature_size():
    ordered = sorted(PqScheme, key=lambda s: s.signature_bits)
    ratios = [signature_ratio(s) for s in ordered]
    slowdowns = [throughput_slowdown(s) for s in ordered]
    assert ratios[0] == slowdowns[0] == 1
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(a < b for a, b in zip(slowdowns, slowdowns[1:]))


def test_weight_oracle_plain_arithmetic():
    # independent recomputation without the layout machinery
    for scheme in PqScheme:
        weight = 4 * (4 + 42 + 44 + 4) + 2 + 67 + (scheme.signature_bits - 512) // 8
        assert post_upgrade_transaction_weight(scheme) == weight
        assert transactions_per_block(scheme) == 4_000_000 // weight


def test_reserves_reduce_capacity():
    params = NetworkParams(apply_reserves=True)
    for scheme in PqScheme:
        assert transactions_per_block(scheme, params) <= transactions_per_block(scheme)
        assert throughput_slowdown(scheme, params) >= 1


def test_slowdown_of_a_transaction_that_does_not_fit_raises():
    # 11 ECDSA transactions fit 5000 WU; one 8237-WU SPHINCS+ one does not.
    params = NetworkParams(block_weight_limit=5000)
    with pytest.raises(InfeasibleBlock, match="not even one 8237-WU input fits"):
        transactions_per_block(PqScheme.SPHINCS_PLUS, params)
    with pytest.raises(InfeasibleBlock, match="not even one 8237-WU input fits"):
        throughput_slowdown(PqScheme.SPHINCS_PLUS, params)
    assert throughput_slowdown(PqScheme.FALCON, params) == Fraction(11, 4)  # 1047 WU fits 4


def test_a_block_with_no_usable_weight_raises():
    # The reserves (332 WU) exceed a 300-WU limit.  Floor division of the
    # negative usable weight would report -1 transactions.
    params = NetworkParams(block_weight_limit=300, apply_reserves=True)
    for scheme in PqScheme:
        with pytest.raises(InfeasibleBlock, match="usable block weight -32 does not exceed"):
            transactions_per_block(scheme, params)
        with pytest.raises(InfeasibleBlock):
            throughput_slowdown(scheme, params)


@pytest.mark.parametrize("limit", [445, 1046, 5000, 4_000_000])
@pytest.mark.parametrize("reserves", [False, True])
def test_ecdsa_baseline_is_the_one_per_transaction_capacity(limit, reserves):
    params = NetworkParams(block_weight_limit=limit, apply_reserves=reserves)
    if params.usable_block_weight() < 445:
        for call in (transactions_per_block, throughput_slowdown):
            with pytest.raises(InfeasibleBlock):
                call(PqScheme.ECDSA_256, params)
        return
    per_block = transactions_per_block(PqScheme.ECDSA_256, params)
    assert per_block == params.usable_block_weight() // 445
    assert per_block == per_block_capacity(
        UpgradeScheme.ECDSA_SEGWIT, PackingMode.ONE_PER_TRANSACTION, params
    )


def test_layout_weight_consistency():
    for scheme in PqScheme:
        assert transaction_weight(post_upgrade_layout(scheme)) == (
            post_upgrade_transaction_weight(scheme)
        )
