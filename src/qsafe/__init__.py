"""Quantitative model of Bitcoin's migration to quantum-safe keys.

Five surfaces: exact transaction weight accounting (``weight_model``),
per-block upgrade capacity (``block_packer``), migration duration bounds
and throttled schedules (``migration_planner``), the key-theft race
against block arrival (``jit_attack_sim``), and the throughput cost of
post-quantum signatures (``pq_impact``).  ``cli_report`` exposes all of
them as the ``qsafe`` command.
"""

from .weight_model import (
    DEFAULT_PARAMS,
    FieldKind,
    NetworkParams,
    TransactionLayout,
    cumulative_weights,
    ecdsa_mega,
    field_weight,
    schnorr_mega,
    single_in_single_out,
    transaction_weight,
)
from .block_packer import (
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
from .migration_planner import (
    DEFAULT_SNAPSHOT,
    EveryKthBlock,
    FractionOfEachBlock,
    InvalidBandwidth,
    ScheduleTimeline,
    UtxoSnapshot,
    bandwidth_table,
    lower_bound_duration,
    mixed_duration,
    throttled_schedule,
)
from .jit_attack_sim import (
    AttackScenario,
    FeePolicy,
    FixedInterval,
    InvalidClock,
    Memoryless,
    QuantumAttacker,
    break_duration,
    race_win_count,
    success_probability_closed_form,
    success_probability_monte_carlo,
    sweep,
)
from .pq_impact import (
    PqScheme,
    post_upgrade_layout,
    post_upgrade_transaction_weight,
    signature_ratio,
    throughput_slowdown,
    transactions_per_block,
)
from .cli_report import (
    ReportFormat,
    emit_report,
    load_snapshot,
    render_report,
    round_half_up,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PARAMS",
    "DEFAULT_SNAPSHOT",
    "AttackScenario",
    "EveryKthBlock",
    "FeePolicy",
    "FieldKind",
    "FixedInterval",
    "FractionOfEachBlock",
    "InfeasibleBlock",
    "InvalidBandwidth",
    "InvalidClock",
    "Memoryless",
    "NetworkParams",
    "PackingMode",
    "PqScheme",
    "QuantumAttacker",
    "ReportFormat",
    "ScheduleTimeline",
    "TransactionLayout",
    "UpgradeScheme",
    "UtxoSnapshot",
    "bandwidth_table",
    "blocks_required",
    "break_duration",
    "cumulative_weights",
    "ecdsa_mega",
    "emit_report",
    "field_weight",
    "fixed_overhead",
    "load_snapshot",
    "lower_bound_duration",
    "mega_capacity",
    "mixed_duration",
    "per_block_capacity",
    "per_input_weight",
    "post_upgrade_layout",
    "post_upgrade_transaction_weight",
    "race_win_count",
    "render_report",
    "round_half_up",
    "run",
    "schnorr_mega",
    "signature_ratio",
    "single_in_single_out",
    "standalone_upgrade_weight",
    "success_probability_closed_form",
    "success_probability_monte_carlo",
    "sweep",
    "throttled_schedule",
    "throughput_slowdown",
    "transaction_weight",
    "transactions_per_block",
]
