"""Per-block UTXO-upgrade capacity and block-count arithmetic.

Capacities are derived from the layouts in :mod:`qsafe.weight_model`
rather than hard-coded: the per-input cost of a packing strategy is the
weight difference between its mega layout at one input and at zero, and
the fixed overhead is the zero-input weight.  :func:`mega_capacity` is
the one rule for how many of something fit a block; one standalone
transaction per upgrade is the same rule with no overhead, and
:mod:`qsafe.pq_impact` uses it for post-quantum transactions too.
"""

from enum import Enum

from .weight_model import (
    DEFAULT_PARAMS,
    NetworkParams,
    ecdsa_mega,
    schnorr_mega,
    single_in_single_out,
    transaction_weight,
)


class UpgradeScheme(Enum):
    """Signature regime of the inputs being upgraded."""

    ECDSA_SEGWIT = "ecdsa-segwit"
    SCHNORR_TAPROOT = "schnorr-taproot"


class PackingMode(Enum):
    """How upgrades are packed: one block-filling transaction, or one
    standalone 445-WU transaction per upgrade."""

    MEGA_TRANSACTION = "mega-transaction"
    ONE_PER_TRANSACTION = "one-per-transaction"


class InfeasibleBlock(ValueError):
    """The block weight limit cannot fit even one upgrade."""


_MEGA_BUILDERS = {
    UpgradeScheme.ECDSA_SEGWIT: ecdsa_mega,
    UpgradeScheme.SCHNORR_TAPROOT: schnorr_mega,
}


def fixed_overhead(scheme: UpgradeScheme) -> int:
    """Weight of a mega transaction before any input is added."""
    return transaction_weight(_MEGA_BUILDERS[scheme](0))


def per_input_weight(scheme: UpgradeScheme) -> int:
    """Marginal weight of adding one more input to a mega transaction."""
    build = _MEGA_BUILDERS[scheme]
    return transaction_weight(build(1)) - transaction_weight(build(0))


def standalone_upgrade_weight() -> int:
    """Weight of a single-input/single-output upgrade transaction (445)."""
    return transaction_weight(single_in_single_out())


def mega_capacity(per_input: int, overhead: int, params: NetworkParams = DEFAULT_PARAMS) -> int:
    """Largest input count whose mega transaction fits the usable block weight.

    The one block-fit rule: with ``overhead`` 0 it is the number of
    ``per_input``-WU transactions that fit one block.  It may be 0;
    InfeasibleBlock if the overhead alone fills the usable weight.
    """
    if per_input <= 0:
        raise ValueError(f"per_input must be positive, got {per_input}")
    usable = params.usable_block_weight()
    if usable <= overhead:
        raise InfeasibleBlock(
            f"usable block weight {usable} does not exceed the fixed overhead {overhead}"
        )
    return (usable - overhead) // per_input


def _nonzero_capacity(per_input: int, overhead: int, params: NetworkParams) -> int:
    """``mega_capacity``, refusing a block that fits not even one input."""
    capacity = mega_capacity(per_input, overhead, params)
    if capacity < 1:
        raise InfeasibleBlock(
            f"not even one {per_input}-WU input fits the usable block weight "
            f"{params.usable_block_weight()} beside the fixed overhead {overhead}"
        )
    return capacity


def per_block_capacity(
    scheme: UpgradeScheme,
    mode: PackingMode = PackingMode.MEGA_TRANSACTION,
    params: NetworkParams = DEFAULT_PARAMS,
) -> int:
    """UTXO upgrades that fit in one block under the given strategy; at
    least 1, or InfeasibleBlock."""
    if mode is PackingMode.MEGA_TRANSACTION:
        return _nonzero_capacity(per_input_weight(scheme), fixed_overhead(scheme), params)
    return _nonzero_capacity(standalone_upgrade_weight(), 0, params)


def blocks_required(
    n_utxos: int,
    scheme: UpgradeScheme,
    mode: PackingMode = PackingMode.MEGA_TRANSACTION,
    params: NetworkParams = DEFAULT_PARAMS,
) -> int:
    """Blocks needed to migrate ``n_utxos``; a partial final block counts whole."""
    if n_utxos < 0:
        raise ValueError(f"n_utxos must be >= 0, got {n_utxos}")
    capacity = per_block_capacity(scheme, mode, params)
    return (n_utxos + capacity - 1) // capacity
