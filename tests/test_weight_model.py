import random

import pytest

from qsafe.weight_model import (
    DEFAULT_PARAMS,
    FieldEntry,
    FieldKind,
    NetworkParams,
    SCALE_FACTORS,
    TransactionLayout,
    canonical_layouts,
    cumulative_weights,
    ecdsa_mega,
    field_weight,
    schnorr_mega,
    single_in_single_out,
    transaction_weight,
)


def test_scale_factors():
    assert SCALE_FACTORS[FieldKind.WITNESS_DATA] == 1
    assert SCALE_FACTORS[FieldKind.MARKER_AND_FLAG] == 1
    for kind in (FieldKind.VERSION, FieldKind.INPUT, FieldKind.OUTPUT, FieldKind.LOCK_TIME):
        assert SCALE_FACTORS[kind] == 4


def test_field_weight_scales_by_kind():
    assert field_weight(67, FieldKind.WITNESS_DATA) == 67
    assert field_weight(42, FieldKind.INPUT) == 168
    assert field_weight(0, FieldKind.OUTPUT) == 0
    with pytest.raises(ValueError):
        field_weight(-1, FieldKind.INPUT)


def test_canonical_transaction_totals():
    layout = single_in_single_out()
    assert layout.total_bytes == 163
    assert transaction_weight(layout) == 445


def test_canonical_cumulative_weights():
    assert cumulative_weights(single_in_single_out()) == (16, 18, 186, 362, 429, 445)


def test_cumulative_matches_total_for_any_layout():
    assert transaction_weight(TransactionLayout(())) == 0
    rng = random.Random(901)
    kinds = list(FieldKind)
    for _ in range(200):
        pairs = [
            (rng.choice(kinds), rng.randrange(0, 1000))
            for _ in range(rng.randrange(0, 12))
        ]
        layout = TransactionLayout.from_pairs(pairs)
        totals = cumulative_weights(layout)
        assert len(totals) == len(layout)
        assert (totals[-1] if totals else 0) == transaction_weight(layout)
        assert all(b >= a for a, b in zip(totals, totals[1:]))


def test_ecdsa_mega_is_affine_in_inputs():
    base = transaction_weight(ecdsa_mega(0))
    assert base == 210
    for n in (1, 2, 17, 17020):
        assert transaction_weight(ecdsa_mega(n)) == 210 + 235 * n


def test_schnorr_mega_is_affine_in_inputs():
    base = transaction_weight(schnorr_mega(0))
    assert base == 277
    for n in (1, 2, 17, 23807):
        assert transaction_weight(schnorr_mega(n)) == 277 + 168 * n


def test_mega_builders_reject_negative_inputs():
    with pytest.raises(ValueError):
        ecdsa_mega(-1)
    with pytest.raises(ValueError):
        schnorr_mega(-1)


def test_schnorr_mega_has_one_witness():
    layout = schnorr_mega(50)
    witnesses = [e for e in layout if e.kind is FieldKind.WITNESS_DATA]
    assert len(witnesses) == 1
    ecdsa_witnesses = [e for e in ecdsa_mega(50) if e.kind is FieldKind.WITNESS_DATA]
    assert len(ecdsa_witnesses) == 50


def test_field_entry_rejects_negative_size():
    with pytest.raises(ValueError):
        FieldEntry(FieldKind.INPUT, -4)


def test_default_params():
    assert DEFAULT_PARAMS.block_weight_limit == 4_000_000
    assert DEFAULT_PARAMS.blocktime_seconds == 600
    assert DEFAULT_PARAMS.usable_block_weight() == 4_000_000


def test_reserves_only_count_when_applied():
    params = NetworkParams(apply_reserves=True)
    assert params.usable_block_weight() == 4_000_000 - 320 - 12
    with pytest.raises(ValueError):
        NetworkParams(block_weight_limit=0)
    with pytest.raises(ValueError):
        NetworkParams(header_reserve=-1)


def test_canonical_layouts_keys():
    layouts = canonical_layouts(3)
    assert set(layouts) == {"single-in-single-out", "ecdsa-mega", "schnorr-mega"}
    assert transaction_weight(layouts["ecdsa-mega"]) == 210 + 3 * 235
