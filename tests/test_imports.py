"""What ``import qsafe`` exposes, and that numpy is loaded only when a
Monte Carlo draw runs.

Each numpy check runs in a fresh interpreter, because this test process
has long since imported numpy.
"""

import subprocess
import sys

import pytest

PROBE = """
import sys
import qsafe
argv = {argv!r}
if argv is not None:
    import contextlib, io
    with contextlib.redirect_stdout(io.StringIO()):
        assert qsafe.cli_report.run(argv) == 0
print("numpy" in sys.modules)
"""


def numpy_loaded_after(argv) -> bool:
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(argv=argv)],
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip() == "True"


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["capacity"],
        ["plan"],
        ["plan", "--schnorr-fraction", "0.3"],
        ["plan", "--schedule", "fraction", "--bandwidth", "1/2"],
        ["impact"],
    ],
    ids=["import", "capacity", "plan", "plan-mixed", "plan-schedule", "impact"],
)
def test_exact_paths_never_load_numpy(argv):
    assert not numpy_loaded_after(argv)


def test_attack_loads_numpy_on_its_first_draw():
    assert numpy_loaded_after(["attack", "--trials", "10"])


def test_public_names_resolve_once():
    import qsafe

    assert len(set(qsafe.__all__)) == len(qsafe.__all__)
    for name in qsafe.__all__:
        assert getattr(qsafe, name) is not None
