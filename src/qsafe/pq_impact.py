"""Throughput cost of swapping ECDSA witnesses for post-quantum signatures.

Each candidate scheme replaces the 512-bit ECDSA signature+pubkey pair
inside the canonical single-in single-out transaction with its own
signature+key material, leaving every other field untouched: its layout
is the canonical tuple of ``FieldEntry`` runs with the witness run
resized.  Weight grows only through the witness bytes (scale factor 1),
so the slowdown in transactions per block is milder than the raw
signature-size ratio.  How many transactions fit a block is
:func:`qsafe.block_packer.mega_capacity` with no overhead, the same rule
the packing strategies use.
"""

from enum import Enum
from fractions import Fraction

from .weight_model import (
    FieldEntry,
    FieldKind,
    NetworkParams,
    DEFAULT_PARAMS,
    single_in_single_out,
    transaction_weight,
)
from .block_packer import _nonzero_capacity


class PqScheme(Enum):
    CRYSTALS_DILITHIUM = "crystals-dilithium"
    FALCON = "falcon"
    SPHINCS_PLUS = "sphincs-plus"
    ECDSA_256 = "ecdsa-256"

    @property
    def signature_bits(self) -> int:
        return _SIGNATURE_BITS[self]


# Combined signature + public key sizes, in bits.
_SIGNATURE_BITS = {
    PqScheme.CRYSTALS_DILITHIUM: 19_360,
    PqScheme.FALCON: 5_328,
    PqScheme.SPHINCS_PLUS: 62_848,
    PqScheme.ECDSA_256: 512,
}

_ECDSA_BITS = _SIGNATURE_BITS[PqScheme.ECDSA_256]


def signature_ratio(scheme: PqScheme) -> Fraction:
    """Scheme signature size over ECDSA's, as an exact fraction."""
    return Fraction(scheme.signature_bits, _ECDSA_BITS)


def post_upgrade_layout(scheme: PqScheme) -> tuple[FieldEntry, ...]:
    """Canonical transaction's runs with the witness resized for the scheme."""
    extra_bytes = (scheme.signature_bits - _ECDSA_BITS) // 8
    return tuple(
        entry._replace(size_bytes=entry.size_bytes + extra_bytes)
        if entry.kind is FieldKind.WITNESS_DATA
        else entry
        for entry in single_in_single_out()
    )


def post_upgrade_transaction_weight(scheme: PqScheme) -> int:
    return transaction_weight(post_upgrade_layout(scheme))


def transactions_per_block(
    scheme: PqScheme, params: NetworkParams = DEFAULT_PARAMS
) -> int:
    """Whole canonical transactions of this scheme fitting in one block;
    at least 1, or InfeasibleBlock."""
    return _nonzero_capacity(post_upgrade_transaction_weight(scheme), 0, params)


def throughput_slowdown(
    scheme: PqScheme, params: NetworkParams = DEFAULT_PARAMS
) -> Fraction:
    """ECDSA transactions per block over this scheme's, as an exact fraction.

    Always at most signature_ratio(scheme): non-witness weight is shared
    and witness bytes count single, so capacity shrinks slower than the
    signatures grow.  InfeasibleBlock if either transaction does not fit.
    """
    baseline = transactions_per_block(PqScheme.ECDSA_256, params)
    return Fraction(baseline, transactions_per_block(scheme, params))
