"""Quantitative model of Bitcoin's migration to quantum-safe keys.

Five surfaces: exact transaction weight accounting (``weight_model``),
per-block upgrade capacity (``block_packer``), migration duration bounds
and throttled schedules (``migration_planner``), the key-theft race
against block arrival (``jit_attack_sim``), and the throughput cost of
post-quantum signatures (``pq_impact``).  ``cli_report`` exposes all of
them as the ``qsafe`` command.

``import qsafe`` loads none of them.  The first use of a public name,
or of a submodule as ``qsafe.<module>``, imports only the module that
defines it (PEP 562), so a command pays for the modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The one list of the public names, by the submodule that defines each.
_EXPORTS = {
    "weight_model": (
        "DEFAULT_PARAMS", "FieldKind", "NetworkParams", "TransactionLayout",
        "cumulative_weights", "ecdsa_mega", "schnorr_mega", "single_in_single_out",
        "transaction_weight",
    ),
    "block_packer": (
        "InfeasibleBlock", "PackingMode", "UpgradeScheme", "blocks_required",
        "fixed_overhead", "mega_capacity", "per_block_capacity",
        "per_input_weight", "standalone_upgrade_weight",
    ),
    "migration_planner": (
        "DEFAULT_SNAPSHOT", "EveryKthBlock", "FractionOfEachBlock",
        "InvalidBandwidth", "ScheduleTimeline", "UtxoSnapshot", "bandwidth_table",
        "lower_bound_duration", "mixed_duration", "throttled_schedule",
    ),
    "jit_attack_sim": (
        "AttackScenario", "FixedInterval", "InvalidClock", "Memoryless",
        "QuantumAttacker", "break_duration", "race_win_count",
        "success_probability_closed_form", "success_probability_monte_carlo",
        "sweep",
    ),
    "pq_impact": (
        "PqScheme", "post_upgrade_layout", "post_upgrade_transaction_weight",
        "signature_ratio", "throughput_slowdown", "transactions_per_block",
    ),
    "cli_report": ("load_snapshot", "render_report", "round_half_up", "run"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        # Importing a submodule binds it on this package as well.
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
