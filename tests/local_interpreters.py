"""Run the numpy-free tier-1 suite on each local Python interpreter.

    python tests/local_interpreters.py [PYTHON ...]

Run it with an interpreter that has pytest and hypothesis installed.  It
lends them to the others: both are pure Python, so a temporary directory
of symlinks to their packages (and to the packages they import) on
``PYTHONPATH`` makes them importable there.  numpy is not lent, so the
numpy tests skip.  Without arguments it runs every pyenv 3.12 and 3.13
interpreter it finds.  Each interpreter's pytest summary line is
printed; the exit code is 1 if any run failed.

3.10 stays CI-only: pytest 9 needs ``exceptiongroup`` there, and a
directory that lends only what the running interpreter has installed
cannot supply it.  Nothing is downloaded.  The file has no ``test_``
prefix, so pytest does not collect it.
"""

import glob
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER_1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]

# What pytest and hypothesis import, as top-level modules.  pytest finds
# hypothesis's plugin through its dist-info entry points.
LENT_MODULES = (
    "pytest", "_pytest", "pluggy", "iniconfig", "packaging", "pygments",
    "hypothesis", "attr", "attrs", "sortedcontainers", "py",
    "_hypothesis_ftz_detector", "_hypothesis_globals", "_hypothesis_pytestplugin",
)
LENT_DISTRIBUTIONS = (
    "pytest", "pluggy", "iniconfig", "packaging", "pygments",
    "hypothesis", "attrs", "sortedcontainers",
)


def lend(target: Path) -> None:
    """Symlink LENT_MODULES and their distributions' dist-info into target."""
    for name in LENT_MODULES:
        spec = importlib.util.find_spec(name)
        if spec is None or spec.origin is None:
            sys.exit(f"{name} is not installed for {sys.executable}")
        origin = Path(spec.origin)
        source = origin.parent if origin.name == "__init__.py" else origin
        (target / source.name).symlink_to(source)
    site = Path(importlib.util.find_spec("pytest").origin).parent.parent
    for name in LENT_DISTRIBUTIONS:
        for info in site.glob(f"{name}-*.dist-info"):
            (target / info.name).symlink_to(info)


def local_interpreters() -> list[str]:
    """pyenv's 3.12 and 3.13 interpreters, by version."""
    root = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    found = []
    for minor in ("3.12", "3.13"):
        pattern = os.path.join(root, "versions", f"{minor}.*", "bin", f"python{minor}")
        found += sorted(glob.glob(pattern))
    return found


def main(argv: list[str]) -> int:
    interpreters = argv or local_interpreters()
    if not interpreters:
        sys.exit("no interpreter given and no pyenv 3.12 or 3.13 found")
    failed = False
    with tempfile.TemporaryDirectory(prefix="qsafe-lend-") as lent:
        lend(Path(lent))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), lent]))
        for python in interpreters:
            done = subprocess.run(
                [python, *TIER_1], cwd=ROOT, env=env, capture_output=True, text=True
            )
            lines = done.stdout.strip().splitlines() or ["(no output)"]
            print(f"{python}: {lines[-1]}", flush=True)
            failed |= done.returncode != 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
