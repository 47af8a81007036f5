"""What ``import qsafe`` exposes, which modules each subcommand loads,
that numpy is loaded only when an ``attack`` draws more than
``_PURE_TRIALS`` trials, that no subcommand at its defaults loads
``dataclasses`` or ``inspect``, that a cold command imports ``json``,
``csv`` and ``threading`` only when it uses them, and ``typing``,
``__future__``, ``argparse`` and what argparse imports never.

Each load check runs in a fresh interpreter, because this test process
has long since imported every qsafe module and numpy.
"""

import json
import os
import subprocess
import sys

import pytest

import qsafe

PROBE = """
import json, sys
import qsafe
argv = {argv!r}
if argv is not None:
    import contextlib, io
    with contextlib.redirect_stdout(io.StringIO()):
        assert qsafe.cli_report.run(argv) == 0
{then}
print(json.dumps({{
    "numpy": "numpy" in sys.modules,
    "qsafe": sorted(name for name in sys.modules if name.startswith("qsafe.")),
}}))
"""


def loaded_after(argv, then="") -> dict:
    """The numpy flag and the ``qsafe.*`` modules a fresh interpreter has
    loaded after ``import qsafe``, a ``run(argv)`` and the code ``then``.

    ``qsafe.cli_report`` is what the probe itself calls ``run`` through.
    """
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(argv=argv, then=then)],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = json.loads(result.stdout)
    loaded["qsafe"] = {name.removeprefix("qsafe.") for name in loaded["qsafe"]}
    return loaded


def imported_by_cold_command(argv, *options) -> set:
    """Every module a cold ``python *options -m qsafe *argv`` imports,
    read from the stderr lines of ``-X importtime``; no bytecode is
    written.

    What ``site`` imports at start-up is the interpreter's, not the
    command's, and is left out: a ``.pth`` file that imports ``certifi``
    brings in ``threading``, for one.  A line is written when its import
    ends, so ``site``'s own top-level line follows everything it loaded.
    The directory qsafe was imported from leads ``PYTHONPATH``, so that
    it is found under ``-S`` too, which skips ``site`` and its ``.pth``
    files.
    """
    path = [os.path.dirname(os.path.dirname(qsafe.__file__)), os.environ.get("PYTHONPATH")]
    result = subprocess.run(
        [sys.executable, *options, "-X", "importtime", "-m", "qsafe", *argv],
        capture_output=True,
        text=True,
        check=True,
        env={
            **os.environ,
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, path)),
        },
    )
    lines = [line for line in result.stderr.splitlines() if line.startswith("import time:")]
    names = [line.rsplit("|", 1)[1] for line in lines]
    if " site" in names:
        names = names[names.index(" site") + 1:]
    return {name.strip() for name in names}


CAPACITY = {"cli_report", "weight_model", "block_packer"}
PLAN = CAPACITY | {"migration_planner"}
IMPACT = CAPACITY | {"pq_impact"}
ATTACK = {"cli_report", "jit_attack_sim"}

EXACT_RUNS = [
    (["capacity"], CAPACITY),
    (["capacity", "--include-reserves"], CAPACITY),
    (["plan"], PLAN),
    (["plan", "--schnorr-fraction", "0.3"], PLAN),
    (["plan", "--schedule", "fraction", "--bandwidth", "1/2"], PLAN),
    (["impact"], IMPACT),
]
EXACT_IDS = ["capacity", "capacity-reserves", "plan", "plan-mixed", "plan-schedule", "impact"]


def test_import_loads_no_submodule_and_no_numpy():
    assert loaded_after(None) == {"numpy": False, "qsafe": set()}


@pytest.mark.parametrize("argv, modules", EXACT_RUNS, ids=EXACT_IDS)
def test_exact_subcommands_load_only_their_modules_and_never_numpy(argv, modules):
    assert loaded_after(argv) == {"numpy": False, "qsafe": modules}


def clock_rows(n):
    return [arg for hz in range(1000, 1000 * (n + 1), 1000) for arg in ("--clock-hz", str(hz))]


# One row of 4 * 10**5 trials, and 5 rows of 10**5, stay within
# _PURE_TRIALS in all.
COLD_ATTACKS = [
    ["attack"], ["attack", "--trials", "10"], ["attack", "--trials", "400000"],
    ["attack", *clock_rows(5)],
]
COLD_ATTACK_IDS = ["attack", "attack-10", "attack-400000", "attack-5-rows"]


@pytest.mark.parametrize(
    "argv", [argv for argv, _ in EXACT_RUNS] + COLD_ATTACKS, ids=[*EXACT_IDS, *COLD_ATTACK_IDS]
)
def test_cold_commands_load_no_dataclasses_inspect_or_numpy(argv):
    # The records share qsafe's own base, and inspect is most of what
    # importing dataclasses costs a cold start.  numpy imports inspect,
    # and a default attack counts its trials without numpy.
    imported = imported_by_cold_command(argv)
    assert "qsafe.cli_report" in imported  # the lines were read
    assert imported & {"dataclasses", "inspect", "numpy"} == set()


FORMAT_RUNS = {
    "capacity": ["capacity"],
    "plan-schedule": ["plan", "--schedule", "fraction", "--bandwidth", "1/2"],
    "impact": ["impact"],
    "attack": ["attack", "--trials", "10"],
}
FORMAT_MODULES = {"csv": {"csv"}, "json": {"json"}, "md": set()}


@pytest.mark.parametrize("fmt", FORMAT_MODULES)
@pytest.mark.parametrize("command", FORMAT_RUNS)
def test_a_cold_command_imports_only_its_formats_module(command, fmt):
    imported = imported_by_cold_command([*FORMAT_RUNS[command], "--format", fmt])
    assert "qsafe.cli_report" in imported
    assert imported & {"csv", "json"} == FORMAT_MODULES[fmt]


@pytest.mark.parametrize("command", ["capacity", "plan", "attack", "impact"])
def test_a_cold_command_imports_no_typing_future_or_argparse(command):
    # Annotations are evaluated when defined, and the few that name what
    # only a type checker imports are strings.  qsafe reads its flags
    # itself, without argparse and the gettext, locale and shutil it
    # imports.  -S keeps site, which may import some of these for a .pth
    # file, from loading them first.
    imported = imported_by_cold_command([command], "-S")
    assert "qsafe.cli_report" in imported
    forbidden = {"typing", "__future__", "argparse", "gettext", "locale", "shutil"}
    assert imported & forbidden == set()


def test_a_default_cold_attack_imports_no_threading():
    # Only numpy's draws run in worker threads.
    imported = imported_by_cold_command(["attack"])
    assert "qsafe.jit_attack_sim" in imported
    assert "threading" not in imported


def test_a_cold_plan_imports_json_to_read_its_snapshot(tmp_path):
    snapshot = tmp_path / "snapshot.json"
    snapshot.write_text('{"total_utxos": 1000, "schnorr_fraction": 0.5}', encoding="utf-8")
    assert "json" in imported_by_cold_command(["plan", "--snapshot", str(snapshot)])


@pytest.mark.parametrize("argv", COLD_ATTACKS, ids=COLD_ATTACK_IDS)
def test_attack_loads_only_the_race_model_and_no_numpy(argv):
    assert loaded_after(argv) == {"numpy": False, "qsafe": ATTACK}


@pytest.mark.parametrize(
    "argv",
    # one row of more than _PURE_TRIALS trials, and 6 rows of 10**5 that
    # draw more than that together
    [["attack", "--trials", "1000000"], ["attack", *clock_rows(6)]],
    ids=["one-large-row", "six-rows"],
)
def test_attack_loads_numpy_when_its_draws_exceed_the_pure_kernel(argv):
    pytest.importorskip("numpy")
    assert loaded_after(argv) == {"numpy": True, "qsafe": ATTACK}


@pytest.mark.parametrize(
    "then, modules",
    [
        ("qsafe.FieldKind", {"weight_model"}),
        ("qsafe.run", {"cli_report"}),
        ("qsafe.pq_impact", {"pq_impact", "weight_model", "block_packer"}),
        ("import qsafe.jit_attack_sim", {"jit_attack_sim"}),
    ],
)
def test_a_name_loads_only_its_module_and_what_that_imports(then, modules):
    assert loaded_after(None, then) == {"numpy": False, "qsafe": modules}


def test_public_names_are_the_defining_modules_own():
    assert len(qsafe.__all__) == len(set(qsafe.__all__)) == 43
    for name in qsafe.__all__:
        value = getattr(qsafe, name)
        home = value.__module__  # an instance reports its class's module
        assert home.startswith("qsafe.")
        assert value is getattr(sys.modules[home], name)
        assert vars(qsafe)[name] is value  # cached after the first use


def test_dir_lists_every_public_name():
    assert set(qsafe.__all__) <= set(dir(qsafe))
    assert {"cli_report", "jit_attack_sim", "__version__"} <= set(dir(qsafe))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qsafe import *", namespace)
    for name in qsafe.__all__:
        assert namespace[name] is getattr(qsafe, name)


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="'qsafe' has no attribute 'no_such_name'"):
        qsafe.no_such_name
