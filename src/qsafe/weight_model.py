"""Exact integer model of Bitcoin transaction weight.

Block space is measured in weight units (WU): a block holds at most
4,000,000 WU, witness bytes count 1 WU each, and most other bytes count
4 WU each.  Transactions are modelled here as ordered runs of
(field kind, byte size, count) entries at the granularity of the major
fields, so that the footprint of UTXO-upgrade transactions can be
computed exactly.  A layout is a plain tuple of ``FieldEntry`` runs in
serialization order.  All arithmetic in this module is integer; nothing
rounds.

The canonical single-input/single-output upgrade transaction is 163
bytes (445 WU), and the ``*_mega`` builders produce the block-filling
many-inputs/one-output variants used to bound upgrade throughput: six
runs whatever their input count.
"""

import operator
from enum import Enum

from . import _Record


class FieldKind(Enum):
    """Major serialization fields of a transaction."""

    VERSION = "version"
    MARKER_AND_FLAG = "marker-and-flag"
    INPUT = "input"
    OUTPUT = "output"
    WITNESS_DATA = "witness-data"
    LOCK_TIME = "lock-time"


# Bytes-to-WU conversion factor per field: witness data and the SegWit
# marker/flag pair weigh 1 WU per byte, everything else weighs 4.
SCALE_FACTORS: dict[FieldKind, int] = {
    FieldKind.VERSION: 4,
    FieldKind.MARKER_AND_FLAG: 1,
    FieldKind.INPUT: 4,
    FieldKind.OUTPUT: 4,
    FieldKind.WITNESS_DATA: 1,
    FieldKind.LOCK_TIME: 4,
}

# Byte sizes of the canonical single-input/single-output transaction.
VERSION_BYTES = 4
MARKER_AND_FLAG_BYTES = 2
INPUT_BYTES = 42
OUTPUT_BYTES = 44
WITNESS_BYTES = 67
LOCK_TIME_BYTES = 4


class FieldEntry(_Record):
    """A run of ``count`` consecutive serialized fields of one kind and size."""

    kind: FieldKind
    size_bytes: int
    count: int = 1

    def _check(self) -> None:
        # Whole bytes and a whole number of fields: a float raises TypeError.
        object.__setattr__(self, "size_bytes", operator.index(self.size_bytes))
        object.__setattr__(self, "count", operator.index(self.count))
        if self.size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {self.size_bytes}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")


# Weight that a block's header (80 bytes) and transaction counter (3
# bytes) take, at 4 WU per byte.
HEADER_RESERVE = 320
COUNTER_RESERVE = 12


class NetworkParams(_Record):
    """Consensus-level constants the capacity math depends on.

    The header and transaction-counter reserves are left out of
    capacity computations unless ``apply_reserves`` is set: the default
    models the strict lower-bound convention where every weight unit of
    the block is available for upgrades.
    """

    block_weight_limit: int = 4_000_000
    blocktime_seconds: int = 600
    apply_reserves: bool = False

    def _check(self) -> None:
        # Whole weight units and whole seconds: a float raises TypeError.
        object.__setattr__(self, "block_weight_limit", operator.index(self.block_weight_limit))
        object.__setattr__(self, "blocktime_seconds", operator.index(self.blocktime_seconds))
        if self.block_weight_limit <= 0:
            raise ValueError("block_weight_limit must be positive")
        if self.blocktime_seconds <= 0:
            raise ValueError("blocktime_seconds must be positive")

    def usable_block_weight(self) -> int:
        """Weight available for upgrades under the current reserve policy."""
        if self.apply_reserves:
            return self.block_weight_limit - HEADER_RESERVE - COUNTER_RESERVE
        return self.block_weight_limit


DEFAULT_PARAMS = NetworkParams()


def _run_weight(entry: FieldEntry) -> int:
    return entry.count * entry.size_bytes * SCALE_FACTORS[entry.kind]


def transaction_weight(layout: tuple[FieldEntry, ...]) -> int:
    """Total weight of a layout; fields contribute independently."""
    return sum(_run_weight(entry) for entry in layout)


def cumulative_weights(layout: tuple[FieldEntry, ...]) -> tuple[int, ...]:
    """Running weight totals over the layout's prefixes, one per run."""
    totals = []
    running = 0
    for entry in layout:
        running += _run_weight(entry)
        totals.append(running)
    return tuple(totals)


def single_in_single_out() -> tuple[FieldEntry, ...]:
    """The canonical 163-byte / 445-WU one-input, one-output transaction."""
    return _mega(1, 1)


def _mega(n_inputs: int, n_witnesses: int) -> tuple[FieldEntry, ...]:
    # Fields in serialization order: every input precedes the output and
    # every witness follows it.
    return (
        FieldEntry(FieldKind.VERSION, VERSION_BYTES),
        FieldEntry(FieldKind.MARKER_AND_FLAG, MARKER_AND_FLAG_BYTES),
        FieldEntry(FieldKind.INPUT, INPUT_BYTES, n_inputs),
        FieldEntry(FieldKind.OUTPUT, OUTPUT_BYTES),
        FieldEntry(FieldKind.WITNESS_DATA, WITNESS_BYTES, n_witnesses),
        FieldEntry(FieldKind.LOCK_TIME, LOCK_TIME_BYTES),
    )


def ecdsa_mega(n_inputs: int) -> tuple[FieldEntry, ...]:
    """Block-filling upgrade transaction with one ECDSA witness per input.

    Costs 235 WU per input (168 input + 67 witness) on top of 210 WU of
    fixed overhead.
    """
    return _mega(n_inputs, n_inputs)


def schnorr_mega(n_inputs: int) -> tuple[FieldEntry, ...]:
    """Block-filling upgrade transaction with one aggregated Schnorr witness.

    Key aggregation collapses all witnesses into a single 67-byte
    instance, so inputs cost 168 WU each on top of 277 WU of fixed
    overhead.
    """
    return _mega(n_inputs, 1)
