"""Downtime and throttling bounds for migrating the UTXO set.

Durations are kept as exact :class:`fractions.Fraction` values (blocks
times blocktime over bandwidth) until a report renders them; the printed
tables' two-decimal cells are a display concern, not a property of the
model.  Bandwidth is the share of each block's weight granted to upgrade
transactions, so halving the bandwidth exactly doubles every bound.

Throttled schedules are closed forms too: a backlog drains in whole
per-block shares plus one partial tail, so a schedule is held as that
run length and its cost does not depend on k or on the pool size.
"""

import math
import operator
from fractions import Fraction
from numbers import Rational, Real

from . import _Record
from .block_packer import (
    PackingMode,
    UpgradeScheme,
    blocks_required,
    per_block_capacity,
)
from .weight_model import DEFAULT_PARAMS, NetworkParams


def _shown(value) -> str:
    """str(value) for a message; a rational with a part past 133 bits shows its magnitude."""
    if not isinstance(value, Rational):
        return str(value)
    if max(abs(value.numerator), value.denominator).bit_length() <= 133:  # about 40 digits
        return str(value)
    magnitude = math.log10(abs(value.numerator)) - math.log10(value.denominator)
    return f"about {'-' if value < 0 else ''}1e{round(magnitude)}"


class UtxoSnapshot(_Record):
    """Size and signature-scheme mix of the UTXO set at a dated point.

    Every check raises ``ValueError``, so a bad value read from a file or
    a flag is reported as bad input rather than as a crash.
    """

    as_of: str
    total: int
    schnorr_fraction: float | Fraction = 0.0

    def _check(self) -> None:
        total, fraction = self.total, self.schnorr_fraction
        if isinstance(total, bool) or not isinstance(total, int):
            raise ValueError(
                f"total must be an integer, got {_shown(total)} ({type(total).__name__})"
            )
        if total < 0:
            raise ValueError(f"total must be >= 0, got {_shown(total)}")
        # NaN fails the range test too.
        if isinstance(fraction, bool) or not (
            isinstance(fraction, Real) and 0 <= fraction <= 1
        ):
            raise ValueError(
                f"schnorr_fraction must be a real number in [0, 1], got {_shown(fraction)}"
            )


# Mid-2024 UTXO set; Schnorr-capable outputs were under 1% and are
# conservatively counted as zero.
DEFAULT_SNAPSHOT = UtxoSnapshot(as_of="2024-06", total=186_676_874, schnorr_fraction=0.0)


def _as_bandwidth(value) -> Fraction:
    bandwidth = Fraction(value)
    if not 0 < bandwidth <= 1:
        raise ValueError(f"bandwidth must be in (0, 1], got {_shown(value)}")
    return bandwidth


class EveryKthBlock(_Record):
    """Dedicate every k'th block entirely to upgrade transactions."""

    k: int

    def _check(self) -> None:
        # A whole number of blocks: a float k raises TypeError.
        object.__setattr__(self, "k", operator.index(self.k))
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {_shown(self.k)}")


class FractionOfEachBlock(_Record):
    """Reserve a fixed fraction of every block for upgrade transactions."""

    fraction: Fraction

    def _check(self) -> None:
        object.__setattr__(self, "fraction", _as_bandwidth(self.fraction))


ScheduleStyle = EveryKthBlock | FractionOfEachBlock


def _hours(blocks: int, blocktime_seconds: int) -> Fraction:
    """Exact hours that ``blocks`` consecutive blocks take."""
    return Fraction(blocks * blocktime_seconds, 3600)


class ScheduleTimeline(_Record):
    """A throttled schedule as runs: every ``stride``'th block carries
    ``share`` upgrades for ``full_blocks`` upgrade blocks, then one more
    upgrade block carries the ``tail`` (``0 <= tail < share``; no block
    when it is 0).  Blocks between upgrade blocks carry none."""

    stride: int
    share: int
    full_blocks: int
    tail: int
    blocktime_seconds: int

    @property
    def upgrade_blocks(self) -> int:
        return self.full_blocks + (self.tail > 0)

    @property
    def blocks_elapsed(self) -> int:
        return self.stride * self.upgrade_blocks

    @property
    def total_upgraded(self) -> int:
        return self.share * self.full_blocks + self.tail

    @property
    def duration_hours(self) -> Fraction:
        return _hours(self.blocks_elapsed, self.blocktime_seconds)


def lower_bound_duration(
    snapshot: UtxoSnapshot,
    scheme: UpgradeScheme,
    bandwidth,
    params: NetworkParams = DEFAULT_PARAMS,
) -> Fraction:
    """Hours to migrate the whole snapshot under one scheme's mega packing.

    The snapshot's entire total is treated as the given scheme; see
    :func:`mixed_duration` for a Schnorr/ECDSA mix.
    """
    bandwidth = _as_bandwidth(bandwidth)
    blocks = blocks_required(snapshot.total, scheme, PackingMode.MEGA_TRANSACTION, params)
    return _hours(blocks, params.blocktime_seconds) / bandwidth


def mixed_duration(
    snapshot: UtxoSnapshot,
    bandwidth,
    params: NetworkParams = DEFAULT_PARAMS,
) -> Fraction:
    """Hours interpolated between the two pure-scheme bounds by the
    snapshot's Schnorr share f: (1 - f) * ECDSA + f * Schnorr, each
    bound taken for the full total.

    f = 0 gives the ECDSA bound and f = 1 the Schnorr bound.  Between
    them it is an interpolation, not a realisable schedule nor a bound:
    packing the two pools separately in whole blocks can take longer.
    At f = 3/10 on the default snapshot this gives 1671.82 h, and the
    separate pools need 10,031 blocks, 1671.83 h.
    """
    f = Fraction(snapshot.schnorr_fraction)
    t_ecdsa = lower_bound_duration(snapshot, UpgradeScheme.ECDSA_SEGWIT, bandwidth, params)
    t_schnorr = lower_bound_duration(
        snapshot, UpgradeScheme.SCHNORR_TAPROOT, bandwidth, params
    )
    return (1 - f) * t_ecdsa + f * t_schnorr


def bandwidth_table(
    snapshot: UtxoSnapshot,
    bandwidths,
    params: NetworkParams = DEFAULT_PARAMS,
) -> list[dict]:
    """One row per bandwidth: hours and days for each pure-scheme bound."""
    rows = []
    for value in bandwidths:
        bandwidth = _as_bandwidth(value)
        ecdsa_hours = lower_bound_duration(
            snapshot, UpgradeScheme.ECDSA_SEGWIT, bandwidth, params
        )
        schnorr_hours = lower_bound_duration(
            snapshot, UpgradeScheme.SCHNORR_TAPROOT, bandwidth, params
        )
        rows.append(
            {
                "bandwidth": bandwidth,
                "ecdsa_hours": ecdsa_hours,
                "ecdsa_days": ecdsa_hours / 24,
                "schnorr_hours": schnorr_hours,
                "schnorr_days": schnorr_hours / 24,
            }
        )
    return rows


def throttled_schedule(
    snapshot: UtxoSnapshot,
    scheme: UpgradeScheme,
    schedule_style: ScheduleStyle,
    params: NetworkParams = DEFAULT_PARAMS,
) -> ScheduleTimeline:
    """The schedule that migrates the snapshot, as a run-length timeline.

    ``EveryKthBlock(k)`` fills blocks k, 2k, 3k, ... entirely with
    upgrades; ``FractionOfEachBlock(q)`` gives every block a share of
    floor(capacity * q) upgrades (partial upgrades do not exist, so the
    share floors).  Either way the backlog drains in whole shares and
    one partial tail, so the cost does not depend on k or the pool size.
    """
    capacity = per_block_capacity(scheme, PackingMode.MEGA_TRANSACTION, params)
    if isinstance(schedule_style, EveryKthBlock):
        stride, share = schedule_style.k, capacity
    else:
        stride, share = 1, int(capacity * schedule_style.fraction)  # floor
        if share < 1:
            raise ValueError(
                f"fraction {_shown(schedule_style.fraction)} of capacity {capacity} "
                "floors to zero upgrades per block"
            )
    full_blocks, tail = divmod(snapshot.total, share)
    return ScheduleTimeline(stride, share, full_blocks, tail, params.blocktime_seconds)
