import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsafe.weight_model import (
    COUNTER_RESERVE,
    DEFAULT_PARAMS,
    FieldEntry,
    FieldKind,
    HEADER_RESERVE,
    NetworkParams,
    SCALE_FACTORS,
    cumulative_weights,
    ecdsa_mega,
    schnorr_mega,
    single_in_single_out,
    transaction_weight,
)


def test_scale_factors():
    assert SCALE_FACTORS[FieldKind.WITNESS_DATA] == 1
    assert SCALE_FACTORS[FieldKind.MARKER_AND_FLAG] == 1
    for kind in (FieldKind.VERSION, FieldKind.INPUT, FieldKind.OUTPUT, FieldKind.LOCK_TIME):
        assert SCALE_FACTORS[kind] == 4


def _field_weight(size_bytes, kind):
    return transaction_weight((FieldEntry(kind, size_bytes),))


def test_field_weight_scales_by_kind():
    assert _field_weight(67, FieldKind.WITNESS_DATA) == 67
    assert _field_weight(42, FieldKind.INPUT) == 168
    assert _field_weight(0, FieldKind.OUTPUT) == 0
    with pytest.raises(ValueError):
        _field_weight(-1, FieldKind.INPUT)


def test_canonical_transaction_totals():
    layout = single_in_single_out()
    assert sum(entry.size_bytes * entry.count for entry in layout) == 163
    assert transaction_weight(layout) == 445


def test_canonical_cumulative_weights():
    assert cumulative_weights(single_in_single_out()) == (16, 18, 186, 362, 429, 445)


def test_cumulative_matches_total_for_any_layout():
    assert transaction_weight(()) == 0
    rng = random.Random(901)
    kinds = list(FieldKind)
    for _ in range(200):
        layout = tuple(
            FieldEntry(rng.choice(kinds), rng.randrange(0, 1000), rng.randrange(0, 50))
            for _ in range(rng.randrange(0, 12))
        )
        totals = cumulative_weights(layout)
        assert len(totals) == len(layout)
        assert (totals[-1] if totals else 0) == transaction_weight(layout)
        assert all(b >= a for a, b in zip(totals, totals[1:]))


def test_ecdsa_mega_is_affine_in_inputs():
    base = transaction_weight(ecdsa_mega(0))
    assert base == 210
    for n in (1, 2, 3, 17, 17020):
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


def _witness_count(layout):
    return sum(e.count for e in layout if e.kind is FieldKind.WITNESS_DATA)


def test_schnorr_mega_has_one_witness():
    assert _witness_count(schnorr_mega(50)) == 1
    assert _witness_count(ecdsa_mega(50)) == 50


def _one_entry_per_field(n_inputs, n_witnesses):
    # The layout the builders produced before runs: one (kind, size)
    # pair per serialized field.
    return (
        [(FieldKind.VERSION, 4), (FieldKind.MARKER_AND_FLAG, 2)]
        + [(FieldKind.INPUT, 42)] * n_inputs
        + [(FieldKind.OUTPUT, 44)]
        + [(FieldKind.WITNESS_DATA, 67)] * n_witnesses
        + [(FieldKind.LOCK_TIME, 4)]
    )


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 10**6), ecdsa=st.booleans())
@example(n=0, ecdsa=True)
@example(n=0, ecdsa=False)
@example(n=10**6, ecdsa=True)
def test_runs_match_one_entry_per_field(n, ecdsa):
    layout = ecdsa_mega(n) if ecdsa else schnorr_mega(n)
    fields = _one_entry_per_field(n, n if ecdsa else 1)
    weight = sum(size * SCALE_FACTORS[kind] for kind, size in fields)
    assert len(layout) == 6
    assert sum(e.count for e in layout) == len(fields)
    assert transaction_weight(layout) == weight
    assert cumulative_weights(layout)[-1] == weight
    assert sum(e.size_bytes * e.count for e in layout) == sum(size for _, size in fields)
    assert _witness_count(layout) == sum(kind is FieldKind.WITNESS_DATA for kind, _ in fields)


def test_mega_layouts_stay_small_at_any_input_count():
    n = 10**12
    assert len(ecdsa_mega(n)) <= 6 and len(schnorr_mega(n)) <= 6
    assert transaction_weight(ecdsa_mega(n)) == 210 + 235 * n
    assert transaction_weight(schnorr_mega(n)) == 277 + 168 * n


def test_field_entry_rejects_negative_size():
    with pytest.raises(ValueError):
        FieldEntry(FieldKind.INPUT, -4)
    with pytest.raises(ValueError):
        FieldEntry(FieldKind.INPUT, 42, -1)
    with pytest.raises(TypeError):
        FieldEntry(FieldKind.INPUT, 42, 1.5)
    with pytest.raises(TypeError):
        FieldEntry(FieldKind.INPUT, 1.5)


def test_default_params():
    assert DEFAULT_PARAMS.block_weight_limit == 4_000_000
    assert DEFAULT_PARAMS.blocktime_seconds == 600
    assert DEFAULT_PARAMS.usable_block_weight() == 4_000_000


def test_reserves_only_count_when_applied():
    params = NetworkParams(apply_reserves=True)
    assert HEADER_RESERVE == 320 and COUNTER_RESERVE == 12
    assert params.usable_block_weight() == 4_000_000 - 320 - 12
    with pytest.raises(ValueError):
        NetworkParams(block_weight_limit=0)
    with pytest.raises(ValueError):
        NetworkParams(blocktime_seconds=-600)


def test_network_params_take_whole_numbers():
    # A float limit would give a float capacity (17020.0) that the
    # duration math rejects with a TypeError far from the cause.
    with pytest.raises(TypeError):
        NetworkParams(block_weight_limit=4_000_000.0)
    with pytest.raises(TypeError):
        NetworkParams(blocktime_seconds=600.0)
    assert NetworkParams._fields == (
        "block_weight_limit", "blocktime_seconds", "apply_reserves",
    )

