"""Downtime and throttling bounds for migrating the UTXO set.

Durations are kept as exact :class:`fractions.Fraction` values (blocks
times blocktime over bandwidth) until a report renders them; the printed
tables' two-decimal cells are a display concern, not a property of the
model.  Bandwidth is the share of each block's weight granted to upgrade
transactions, so halving the bandwidth exactly doubles every bound.
"""

from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

from .block_packer import (
    InfeasibleBlock,
    PackingMode,
    UpgradeScheme,
    blocks_required,
    pack_stream,
    per_block_capacity,
)
from .weight_model import DEFAULT_PARAMS, NetworkParams


class InvalidBandwidth(ValueError):
    """Bandwidth fraction outside (0, 1], or a schedule that allocates none."""


@dataclass(frozen=True)
class UtxoSnapshot:
    """Size and signature-scheme mix of the UTXO set at a dated point.

    Every check raises ``ValueError``, so a bad value read from a file or
    a flag is reported as bad input rather than as a crash.
    """

    as_of: str
    total: int
    schnorr_fraction: float | Fraction = 0.0

    def __post_init__(self) -> None:
        total, fraction = self.total, self.schnorr_fraction
        if isinstance(total, bool) or not isinstance(total, int):
            raise ValueError(f"total must be an integer, got {total!r}")
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        # NaN fails the range test too.
        if isinstance(fraction, bool) or not (
            isinstance(fraction, Real) and 0 <= fraction <= 1
        ):
            raise ValueError(
                f"schnorr_fraction must be a real number in [0, 1], got {fraction}"
            )


# Mid-2024 UTXO set; Schnorr-capable outputs were under 1% and are
# conservatively counted as zero.
DEFAULT_SNAPSHOT = UtxoSnapshot(as_of="2024-06", total=186_676_874, schnorr_fraction=0.0)


def _as_bandwidth(value) -> Fraction:
    bandwidth = Fraction(value)
    if not 0 < bandwidth <= 1:
        raise InvalidBandwidth(f"bandwidth must be in (0, 1], got {value}")
    return bandwidth


@dataclass(frozen=True)
class EveryKthBlock:
    """Dedicate every k'th block entirely to upgrade transactions."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidBandwidth(f"k must be >= 1, got {self.k}")

    @property
    def bandwidth(self) -> Fraction:
        return Fraction(1, self.k)


@dataclass(frozen=True)
class FractionOfEachBlock:
    """Reserve a fixed fraction of every block for upgrade transactions."""

    fraction: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "fraction", _as_bandwidth(self.fraction))

    @property
    def bandwidth(self) -> Fraction:
        return self.fraction


ScheduleStyle = EveryKthBlock | FractionOfEachBlock


@dataclass(frozen=True)
class ScheduleTimeline:
    """Per-block upgrade allocations, in block order, until the backlog
    empties.  Behaves as a sequence of allocation counts."""

    allocations: tuple[int, ...]
    blocktime_seconds: int

    def __len__(self) -> int:
        return len(self.allocations)

    def __iter__(self):
        return iter(self.allocations)

    def __getitem__(self, index):
        return self.allocations[index]

    @property
    def blocks_elapsed(self) -> int:
        return len(self.allocations)

    @property
    def upgrade_blocks(self) -> int:
        return sum(1 for a in self.allocations if a > 0)

    @property
    def total_upgraded(self) -> int:
        return sum(self.allocations)

    @property
    def duration_seconds(self) -> int:
        return len(self.allocations) * self.blocktime_seconds

    @property
    def duration_hours(self) -> Fraction:
        return Fraction(self.duration_seconds, 3600)


@dataclass(frozen=True)
class MigrationPlan:
    """A bandwidth allocation and the block count / duration it implies."""

    bandwidth: Fraction
    blocks: int
    duration_hours: Fraction
    blocktime_seconds: int = 600
    schedule_style: ScheduleStyle | None = None

    def __post_init__(self) -> None:
        expected = Fraction(self.blocks * self.blocktime_seconds, 3600) / self.bandwidth
        if self.duration_hours != expected:
            raise ValueError(
                f"duration_hours {self.duration_hours} inconsistent with "
                f"{self.blocks} blocks at bandwidth {self.bandwidth}"
            )
        if (
            isinstance(self.schedule_style, EveryKthBlock)
            and self.bandwidth != self.schedule_style.bandwidth
        ):
            raise ValueError(
                f"EveryKthBlock(k={self.schedule_style.k}) requires bandwidth "
                f"1/{self.schedule_style.k}, got {self.bandwidth}"
            )


def lower_bound_duration(
    snapshot: UtxoSnapshot,
    scheme: UpgradeScheme,
    bandwidth,
    params: NetworkParams = DEFAULT_PARAMS,
) -> Fraction:
    """Hours to migrate the whole snapshot under one scheme's mega packing.

    The snapshot's entire total is treated as the given scheme; use
    :func:`mixed_duration` for a Schnorr/ECDSA mix.
    """
    bandwidth = _as_bandwidth(bandwidth)
    blocks = blocks_required(snapshot.total, scheme, PackingMode.MEGA_TRANSACTION, params)
    return Fraction(blocks * params.blocktime_seconds, 3600) / bandwidth


def mixed_duration(
    snapshot: UtxoSnapshot,
    bandwidth,
    params: NetworkParams = DEFAULT_PARAMS,
) -> Fraction:
    """Duration bound interpolated by the snapshot's Schnorr share.

    Affine between the all-ECDSA and all-Schnorr bounds for the full
    total: f = 0 reproduces the ECDSA bound, f = 1 the Schnorr bound.
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
    """Enumerate the block-by-block schedule until the backlog is empty.

    ``EveryKthBlock(k)`` fills blocks k, 2k, 3k, ... entirely with
    upgrades; ``FractionOfEachBlock(q)`` gives every block a share of
    floor(capacity * q) upgrades (partial upgrades do not exist, so the
    share floors).
    """
    capacity = per_block_capacity(scheme, PackingMode.MEGA_TRANSACTION, params)
    if capacity < 1:
        raise InfeasibleBlock(f"per-block capacity is zero for {scheme.value}")
    allocations: list[int] = []
    remaining = snapshot.total
    if isinstance(schedule_style, EveryKthBlock):
        k = schedule_style.k
        block_index = 0
        while remaining > 0:
            block_index += 1
            if block_index % k == 0:
                packed, remaining = pack_stream(remaining, capacity)
            else:
                packed = 0
            allocations.append(packed)
    else:
        share = int(capacity * schedule_style.fraction)  # floor: whole upgrades only
        if share < 1:
            raise InvalidBandwidth(
                f"fraction {schedule_style.fraction} of capacity {capacity} "
                "floors to zero upgrades per block"
            )
        while remaining > 0:
            packed, remaining = pack_stream(remaining, share)
            allocations.append(packed)
    return ScheduleTimeline(tuple(allocations), params.blocktime_seconds)


def plan_migration(
    snapshot: UtxoSnapshot,
    scheme: UpgradeScheme,
    *,
    bandwidth=None,
    schedule_style: ScheduleStyle | None = None,
    params: NetworkParams = DEFAULT_PARAMS,
) -> MigrationPlan:
    """Build a :class:`MigrationPlan` from a bandwidth or a schedule style."""
    if (bandwidth is None) == (schedule_style is None):
        raise ValueError("provide exactly one of bandwidth or schedule_style")
    if schedule_style is not None:
        bandwidth = schedule_style.bandwidth
    bandwidth = _as_bandwidth(bandwidth)
    blocks = blocks_required(snapshot.total, scheme, PackingMode.MEGA_TRANSACTION, params)
    duration = Fraction(blocks * params.blocktime_seconds, 3600) / bandwidth
    return MigrationPlan(
        bandwidth=bandwidth,
        blocks=blocks,
        duration_hours=duration,
        blocktime_seconds=params.blocktime_seconds,
        schedule_style=schedule_style,
    )
