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

The model's value classes are frozen records built on ``_Record``,
defined here rather than with ``dataclasses``, which would cost every
command the import of ``inspect`` and the code it generates per class.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"


class _Record:
    """Frozen value whose fields are its class annotations, in order.

    A class value of a field is its default.  Records are built by
    position or keyword and compare and hash by type and fields.  After
    setting the fields, the constructor calls ``_check``, which may
    raise or normalise a value with ``object.__setattr__``.
    """

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The class's own annotations, not inherited ones (Python 3.10 and
        # later).  Python 3.14 evaluates them lazily, on this first access,
        # rather than storing them in the class dict; every annotated name
        # exists by now.  Under postponed evaluation they are strings, and
        # only the names are used.
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(given) or given.keys() & kwargs or values.keys() != set(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes the fields {', '.join(self._fields)}, each "
                f"once, by position or keyword; got {len(args)} positional and {sorted(kwargs)}"
            )
        vars(self).update(values)
        self._check()

    def _check(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        """A copy with ``changes`` applied, built and checked anew."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

# The one list of the public names, by the submodule that defines each.
_EXPORTS = {
    "weight_model": (
        "DEFAULT_PARAMS", "FieldKind", "NetworkParams", "cumulative_weights",
        "ecdsa_mega", "schnorr_mega", "single_in_single_out", "transaction_weight",
    ),
    "block_packer": (
        "InfeasibleBlock", "PackingMode", "UpgradeScheme", "blocks_required",
        "fixed_overhead", "mega_capacity", "per_block_capacity",
        "per_input_weight", "standalone_upgrade_weight",
    ),
    "migration_planner": (
        "DEFAULT_SNAPSHOT", "EveryKthBlock", "FractionOfEachBlock",
        "UtxoSnapshot", "bandwidth_table", "lower_bound_duration",
        "mixed_duration", "throttled_schedule",
    ),
    "jit_attack_sim": (
        "AttackScenario", "FixedInterval", "Memoryless",
        "QuantumAttacker", "break_duration", "race_win_count",
        "success_probability_closed_form", "success_probability_monte_carlo",
        "sweep",
    ),
    "pq_impact": (
        "PqScheme", "post_upgrade_layout", "post_upgrade_transaction_weight",
        "signature_ratio", "throughput_slowdown", "transactions_per_block",
    ),
    "cli_report": ("load_snapshot", "render_report", "run"),
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
