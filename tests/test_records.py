"""The frozen record base shared by the model's value classes: fields,
construction, equality and hash by type, immutability, and ``_replace``
running each class's checks again."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsafe import _Record
from qsafe.jit_attack_sim import AttackScenario, FixedInterval, Memoryless, QuantumAttacker
from qsafe.migration_planner import (
    DEFAULT_SNAPSHOT,
    EveryKthBlock,
    FractionOfEachBlock,
    ScheduleTimeline,
    UtxoSnapshot,
)
from qsafe.weight_model import (
    DEFAULT_PARAMS,
    FieldEntry,
    FieldKind,
    NetworkParams,
)

COUNTS = st.integers(0, 10**6)
SECONDS = st.floats(1.0, 1e5)
FIELD_ENTRIES = st.builds(FieldEntry, st.sampled_from(FieldKind), COUNTS, COUNTS)
FIXED = st.builds(FixedInterval, SECONDS)
MEMORYLESS = st.builds(Memoryless, SECONDS)
ATTACKERS = st.builds(QuantumAttacker, st.integers(0, 4096), st.floats(1.0, 1e9), st.floats(0, 1e5))

# One strategy per record class; together they cover all ten.
RECORDS = {
    FieldEntry: FIELD_ENTRIES,
    NetworkParams: st.builds(NetworkParams, st.integers(1, 10**7), st.integers(1, 10**4),
                             st.booleans()),
    UtxoSnapshot: st.builds(UtxoSnapshot, st.text(max_size=8), COUNTS,
                            st.fractions(0, 1) | st.floats(0, 1)),
    EveryKthBlock: st.builds(EveryKthBlock, st.integers(1, 10**6)),
    FractionOfEachBlock: st.builds(FractionOfEachBlock, st.fractions(0, 1).filter(bool)),
    ScheduleTimeline: st.builds(ScheduleTimeline, COUNTS, COUNTS, COUNTS, COUNTS, COUNTS),
    QuantumAttacker: ATTACKERS,
    FixedInterval: FIXED,
    Memoryless: MEMORYLESS,
    AttackScenario: st.builds(AttackScenario, ATTACKERS, FIXED | MEMORYLESS),
}
ANY_RECORD = st.one_of(*RECORDS.values())


def test_the_strategies_cover_every_record_class():
    assert set(RECORDS) == set(_Record.__subclasses__())
    assert len(RECORDS) == 10


@given(ANY_RECORD)
def test_replace_without_changes_gives_an_equal_record(record):
    copy = record._replace()
    assert copy == record and hash(copy) == hash(record)
    assert type(copy) is type(record)
    assert copy == type(record)(*(getattr(record, field) for field in record._fields))


@given(ANY_RECORD)
def test_fields_cannot_be_assigned_or_deleted(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)


@given(ANY_RECORD, ANY_RECORD)
def test_records_of_different_classes_are_unequal(one, other):
    if type(one) is not type(other):
        assert one != other and not one == other


@given(SECONDS)
def test_equal_values_in_different_classes_are_unequal(seconds):
    assert FixedInterval(seconds) != Memoryless(seconds)
    assert FixedInterval(seconds) == FixedInterval(blocktime_seconds=seconds)
    assert EveryKthBlock(1) != FractionOfEachBlock(Fraction(1))


def test_replace_runs_the_checks_again():
    with pytest.raises(ValueError):
        DEFAULT_SNAPSHOT._replace(schnorr_fraction=2)
    with pytest.raises(TypeError):
        DEFAULT_PARAMS._replace(block_weight_limit=4e6)
    with pytest.raises(TypeError):
        DEFAULT_PARAMS._replace(no_such_field=1)
    assert DEFAULT_PARAMS._replace(apply_reserves=True) == NetworkParams(apply_reserves=True)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((), {}),  # kind and size_bytes have no default
        ((FieldKind.INPUT,), {}),
        ((FieldKind.INPUT, 42, 1, 2), {}),
        ((FieldKind.INPUT, 42), {"size_bytes": 42}),
        ((FieldKind.INPUT, 42), {"weight": 1}),
    ],
)
def test_missing_repeated_or_unknown_fields_raise_type_error(args, kwargs):
    with pytest.raises(TypeError, match="FieldEntry takes the fields kind, size_bytes, count"):
        FieldEntry(*args, **kwargs)


def test_every_record_class_reads_its_fields_from_its_annotations():
    # Pinned, so an interpreter that stores annotations differently
    # cannot leave a class with no fields unnoticed.
    assert {cls: cls._fields for cls in RECORDS} == {
        FieldEntry: ("kind", "size_bytes", "count"),
        NetworkParams: ("block_weight_limit", "blocktime_seconds", "apply_reserves"),
        UtxoSnapshot: ("as_of", "total", "schnorr_fraction"),
        EveryKthBlock: ("k",),
        FractionOfEachBlock: ("fraction",),
        ScheduleTimeline: ("stride", "share", "full_blocks", "tail", "blocktime_seconds"),
        QuantumAttacker: ("key_bits", "effective_clock_hz", "overhead_seconds"),
        FixedInterval: ("blocktime_seconds",),
        Memoryless: ("mean_blocktime_seconds",),
        AttackScenario: ("attacker", "mining"),
    }


def test_fields_defaults_and_repr():
    entry = FieldEntry(FieldKind.INPUT, size_bytes=42)
    assert entry == FieldEntry(kind=FieldKind.INPUT, size_bytes=42, count=1)
    assert repr(entry) == "FieldEntry(kind=<FieldKind.INPUT: 'input'>, size_bytes=42, count=1)"
    assert repr(FixedInterval()) == "FixedInterval(blocktime_seconds=600.0)"
